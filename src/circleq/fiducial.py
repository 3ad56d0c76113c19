"""The reference (fiducial) state from which all circle coherent states
are generated by phase-space displacement.

The profile is the von-Mises-like wave function

    eta(theta) = N exp[(r/hbar)(cos theta - 1) + i alpha theta],
    N = [2 pi e^{-2r/hbar} I_0(2r/hbar)]^{-1/2},

normalized to 1 on [-pi, pi).  It is concentrated around theta = 0 with
angular width ~ sqrt(hbar/r), sits in the alpha-twisted domain, and is
"physically centered": <Q> = 0 and <P> = hbar alpha.  Its momentum
coefficients are sqrt(2 pi) N e^{-r/hbar} I_n(r/hbar), so everything here
reduces to scaled Bessel evaluations plus quadrature cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import TWO_PI, bessel_i_scaled_sequence
from .hilbert import TwistedBasis, default_cutoff, reduce_twist

_SQRT_2PI = math.sqrt(TWO_PI)


@dataclass(frozen=True)
class FiducialSpec:
    """Concentration r (action units), twist alpha, and hbar."""

    r: float
    alpha: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.hbar <= 0.0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        object.__setattr__(self, "alpha", reduce_twist(self.alpha))

    @property
    def localization(self) -> float:
        """Dimensionless concentration r/hbar; 0 is the uniform state."""
        return self.r / self.hbar


def normalization(spec: FiducialSpec) -> float:
    """Peak amplitude N = [2 pi e^{-2r/hbar} I_0(2r/hbar)]^{-1/2}.

    Uses the exponentially scaled Bessel value so the product never
    under- or overflows, whatever r/hbar.
    """
    return 1.0 / math.sqrt(TWO_PI * bessel_i_scaled_sequence(0, 2.0 * spec.localization)[0])


def evaluate(spec: FiducialSpec, theta):
    """Wave function value N e^{(r/hbar)(cos theta - 1) + i alpha theta}."""
    theta = np.asarray(theta, dtype=float)
    z = spec.localization
    values = normalization(spec) * np.exp(z * (np.cos(theta) - 1.0) + 1j * spec.alpha * theta)
    return complex(values) if values.ndim == 0 else values


def default_basis(spec: FiducialSpec) -> TwistedBasis:
    """Basis wide enough that the lattice truncation is negligible."""
    return TwistedBasis(spec.alpha, spec.hbar, default_cutoff(spec.localization))


def momentum_coefficients(spec: FiducialSpec, basis: TwistedBasis) -> np.ndarray:
    """Lattice coefficients c_n = sqrt(2 pi) N e^{-r/hbar} I_n(r/hbar), float64.

    Real, positive and even in n.  The closed form is validated against
    the quadrature projection in the test suite before being trusted as
    the production path.
    """
    if basis.alpha != spec.alpha or basis.hbar != spec.hbar:
        raise ValueError("basis and fiducial spec disagree on alpha or hbar")
    scaled = bessel_i_scaled_sequence(basis.cutoff_n, spec.localization)
    return _SQRT_2PI * normalization(spec) * scaled[np.abs(basis.n_values())]


def attenuations(spec: FiducialSpec, max_harmonic: int) -> np.ndarray:
    """Moments <cos nQ> = I_n(2r/hbar)/I_0(2r/hbar) for n = 0..max_harmonic,
    from scaled values only; r = 0 gives exactly [1, 0, 0, ...]."""
    if max_harmonic < 0:
        raise ValueError("max_harmonic must be >= 0")
    seq = bessel_i_scaled_sequence(max_harmonic, 2.0 * spec.localization)
    return seq / seq[0]


def moments(spec: FiducialSpec) -> tuple[float, float, float]:
    """(mean_q, mean_p, var_p): the position mean by the trapezoidal rule
    on 512 equispaced angles from -pi, and the momentum mean and variance
    by lattice sums.

    These are measurements, not closed forms: the closed forms <Q> = 0,
    <P> = hbar alpha and var_p = hbar r rho_1 / 2 are what they are
    checked against.
    """
    nodes = -math.pi + TWO_PI * np.arange(512) / 512
    basis = default_basis(spec)

    density = np.abs(evaluate(spec, nodes)) ** 2
    integrand = nodes * density
    # theta jumps from pi to -pi across the chart seam; the seam node takes
    # the two-sided average, which vanishes because |eta| is even
    integrand[0] = 0.0
    mean_q = float(TWO_PI / 512 * integrand.sum())

    weights = momentum_coefficients(spec, basis) ** 2
    p_values = basis.momenta()
    mean_p = float(p_values @ weights)
    # centered before squaring: <P^2> - <P>^2 cancels when hbar alpha is
    # large against the spread
    var_p = float((p_values - mean_p) ** 2 @ weights)

    return mean_q, mean_p, var_p

