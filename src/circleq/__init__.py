"""Numerical toolkit for coherent-state (enhanced) quantization of a
particle on the circle: twisted momentum representations, the
Bessel-normalized fiducial state, circle coherent states with a verified
resolution of unity, the attenuated phase-space Hamiltonian, and
classical / enhanced / quantum dynamics side by side."""

from .specfun import bessel_i_scaled_sequence
from .hilbert import (
    MomentumState,
    ResolutionError,
    TwistedBasis,
    default_cutoff,
    wrap_angle,
)
from .fiducial import (
    FiducialMoments,
    FiducialSpec,
    evaluate,
    moments,
    momentum_coefficients,
    normalization,
)
from .coherent import UnityReport, coherent_state, verify_unity
from .enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    canonical_shift,
    classical_hamiltonian,
    enhanced_hamiltonian,
)
from .dynamics import Trajectory, evolve
from .qevolve import (
    ComparisonReport,
    ExpectationTrace,
    HamiltonianMatrix,
    build_hamiltonian,
    compare_restricted,
    evolve_quantum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
