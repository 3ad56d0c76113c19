"""Coherent-state expectation of the quantum Hamiltonian as a function on
phase space, next to its bare classical limit.

For H = P^2 + V(e^{iQ}, e^{-iQ}) with a trigonometric potential (mass
convention 1/(2 mu) = 1), the expectation in |p, q> collapses to closed
form: the kinetic part is (p + hbar alpha)^2 plus the constant momentum
variance of the fiducial state, and each potential harmonic is attenuated
by rho_n = I_n(2r/hbar)/I_0(2r/hbar):

    H_cs(p, q) = (p + hbar alpha)^2 + var_p
                 + a_0 + sum_n rho_n [a_n cos nq + b_n sin nq].

rho_n -> 1 as r/hbar -> infinity, so after the canonical momentum shift
p -> p - hbar alpha this tends to the classical p^2 + V(q); the residual
is O(hbar/r) harmonic by harmonic.  The constant var_p shifts energies,
not dynamics, and is kept visible so the quantum-vs-classical bookkeeping
stays auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fiducial import FiducialSpec, attenuations


@dataclass(frozen=True, eq=False)
class TrigPotential:
    """V(q) = a0 + sum_{n=1}^{m} [a_n cos nq + b_n sin nq]."""

    a0: float = 0.0
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        if len(b) < len(a):
            b = b + (0.0,) * (len(a) - len(b))
        elif len(a) < len(b):
            a = a + (0.0,) * (len(b) - len(a))
        if not all(map(math.isfinite, (self.a0, *a, *b))):
            raise ValueError("potential coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        return len(self.a)

    def value(self, q):
        total = self.a0 * np.ones_like(np.asarray(q, dtype=float))
        for n, (an, bn) in enumerate(zip(self.a, self.b), start=1):
            total = total + an * np.cos(n * q) + bn * np.sin(n * q)
        return total if total.ndim else float(total)

    def derivative(self, q):
        total = np.zeros_like(np.asarray(q, dtype=float))
        for n, (an, bn) in enumerate(zip(self.a, self.b), start=1):
            total = total + n * (-an * np.sin(n * q) + bn * np.cos(n * q))
        return total if total.ndim else float(total)

    def coefficient_scale(self) -> float:
        return abs(self.a0) + sum(abs(x) + abs(y) for x, y in zip(self.a, self.b))

    def force_scale(self) -> float:
        """Bound sum_n n (|a_n| + |b_n|) on |V'(q)|."""
        return sum(n * (abs(x) + abs(y)) for n, (x, y) in enumerate(zip(self.a, self.b), start=1))

    @classmethod
    def free(cls) -> "TrigPotential":
        return cls()

    @classmethod
    def pendulum(cls, a1: float = 1.0) -> "TrigPotential":
        return cls(a=(a1,))


@dataclass(eq=False)
class EnhancedHamiltonian:
    """Phase-space Hamiltonian data for one potential and fiducial state."""

    potential: TrigPotential
    spec: FiducialSpec
    kinetic_offset: float  # momentum variance of the fiducial state
    attenuation: np.ndarray  # rho_1..rho_m

    @classmethod
    def build(cls, potential: TrigPotential, spec: FiducialSpec) -> "EnhancedHamiltonian":
        # var_p = hbar^2 sum_n n^2 I_n(z)^2 / I_0(2z) with z = r/hbar, and
        # sum_n n^2 I_n(z)^2 = z I_1(2z) / 2, so var_p = hbar r rho_1 / 2
        rho = attenuations(spec, max(potential.degree, 1))
        return cls(
            potential=potential,
            spec=spec,
            kinetic_offset=0.5 * spec.hbar * spec.r * rho[1],
            attenuation=rho[1 : potential.degree + 1],
        )

    def effective_potential(self, attenuated: bool = True) -> TrigPotential:
        """The potential the flow sees: harmonics attenuated by rho_n, or bare."""
        if not attenuated:
            return self.potential
        a0, a, b = self.potential.a0, self.potential.a, self.potential.b
        return TrigPotential(a0, tuple(self.attenuation * a), tuple(self.attenuation * b))


def _float_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def enhanced_hamiltonian(model: EnhancedHamiltonian, p, q):
    """Coherent-state energy surface (p + hbar alpha)^2 + var_p + V_rho(q),
    elementwise over broadcast arrays; a float for scalar p and q."""
    shift = model.spec.hbar * model.spec.alpha
    p = np.asarray(p, dtype=float)
    potential = model.effective_potential().value(q)
    return _float_or_array((p + shift) ** 2 + model.kinetic_offset + potential)


def classical_hamiltonian(potential: TrigPotential, p, q):
    """Bare classical energy p^2 + V(q), elementwise like
    :func:`enhanced_hamiltonian`."""
    p = np.asarray(p, dtype=float)
    return _float_or_array(p * p + potential.value(q))


def canonical_shift(p: float, spec: FiducialSpec) -> float:
    """Momentum relabeling p -> p - hbar alpha absorbing the twist.

    In the shifted variable the energy surface reads
    p^2 + var_p + V_rho(q), symmetric in p for every alpha.
    """
    return p - spec.hbar * spec.alpha


def surface_term(alpha: float, hbar: float, qdot: float) -> float:
    """Total-derivative power hbar alpha qdot split off the restricted action.

    Along a trajectory it integrates to hbar alpha (q(T) - q(0)) with the
    unwrapped angle, i.e. 2 pi hbar alpha per winding; it never enters the
    equations of motion.
    """
    return hbar * alpha * qdot
