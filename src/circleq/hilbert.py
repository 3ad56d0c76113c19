"""Truncated Hilbert space of a particle on the circle with a twisted
boundary condition phi(pi) = e^{2 pi i alpha} phi(-pi).

The momentum operator then has the pure point spectrum hbar (n + alpha),
n integer, with plane-wave eigenfunctions e^{i (n + alpha) theta} / sqrt(2 pi).
States are kept as coefficient vectors over the lattice n in [-N, N]
(sharp position states are distributions and get no finite-norm
representation here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import TWO_PI

# largest lattice any command builds; r/hbar = 200 at p = 0 needs 3217 slots (3219 with a pendulum)
MAX_LATTICE_DIM = 8192
# largest half-width N of such a lattice
MAX_CUTOFF = (MAX_LATTICE_DIM - 1) // 2


class ResolutionError(ValueError):
    """A basis truncation is too coarse for the requested result."""


def wrap_angle(theta):
    """Map an angle (scalar or array) into the chart [-pi, pi); one already
    there comes back unchanged, which the reduction alone would not promise
    (it takes 0.7 to 0.7000000000000002)."""
    inside = (theta >= -math.pi) & (theta < math.pi)
    return np.where(inside, theta, (theta + math.pi) % TWO_PI - math.pi)


def reduce_twist(alpha: float) -> float:
    """alpha mod 1 in [0, 1): one ``% 1.0`` rounds a tiny negative alpha to 1.0."""
    return float(alpha) % 1.0 % 1.0


def default_cutoff(localization: float, degree: int = 0) -> int:
    """Lattice half-width that comfortably holds fiducial-derived states.

    Coefficients decay like I_n(localization), super-exponentially past
    n ~ localization; the margin absorbs potential-induced shifts of
    bandwidth ``degree``.
    """
    return int(math.ceil(8.0 * max(localization, 1.0))) + degree + 8


@dataclass(frozen=True)
class TwistedBasis:
    """Momentum lattice n in [-N, N] for twist alpha and scale hbar."""

    alpha: float
    hbar: float
    cutoff_n: int

    def __post_init__(self):
        if self.hbar <= 0.0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if self.cutoff_n < 1:
            raise ValueError(f"cutoff_n must be >= 1, got {self.cutoff_n}")
        # the representation depends on alpha only mod 1
        object.__setattr__(self, "alpha", reduce_twist(self.alpha))

    @property
    def dimension(self) -> int:
        return 2 * self.cutoff_n + 1

    def n_values(self) -> np.ndarray:
        return np.arange(-self.cutoff_n, self.cutoff_n + 1)

    def momenta(self) -> np.ndarray:
        """All eigenvalues hbar (n + alpha) in lattice order."""
        return self.hbar * (self.n_values() + self.alpha)


@dataclass(eq=False)
class MomentumState:
    """Coefficient vector c_n over a twisted momentum lattice."""

    basis: TwistedBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.basis.dimension,):
            raise ValueError(
                f"expected {self.basis.dimension} coefficients, got {self.coeffs.shape}"
            )

    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)
