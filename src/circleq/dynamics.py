"""Symplectic integration of the classical and coherent-state-enhanced
flows on the cylinder phase space.

Both Hamiltonians are separable, T(p) + V(q) with T = (p + hbar alpha)^2
(enhanced) or p^2 (classical) and V the bare or attenuated trigonometric
potential, so a plain Stoermer-Verlet (leapfrog) step with exact forces
is symplectic and time reversible.  The angle is integrated unwrapped;
wrapping happens only at presentation, because the surface term turns
the winding number into a physical boundary value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enhanced import EnhancedHamiltonian
from .hilbert import wrap_angle

# stability heuristic: dt times the force scale must stay below this
MAX_STABLE_STEP = 0.1


@dataclass(frozen=True)
class PhasePoint:
    """Point on the cylinder; q is the wrapped chart of q_unwrapped."""

    q: float
    q_unwrapped: float
    p: float

    def __post_init__(self):
        if abs(wrap_angle(self.q_unwrapped) - self.q) > 1e-12:
            raise ValueError("q must equal wrap(q_unwrapped)")

    @classmethod
    def start(cls, q: float, p: float) -> "PhasePoint":
        q = float(wrap_angle(q))
        return cls(q=q, q_unwrapped=q, p=float(p))


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    q: np.ndarray
    q_unwrapped: np.ndarray
    p: np.ndarray
    energies: np.ndarray


def _flow_pieces(h_kind: str, model: EnhancedHamiltonian):
    """Kinetic shift, potential and energy offset of the flow: its
    Hamiltonian is (p + shift)^2 + offset + potential(q)."""
    if h_kind == "enhanced":
        return model.spec.hbar * model.spec.alpha, model.effective_potential(), model.kinetic_offset
    if h_kind == "classical":
        return 0.0, model.potential, 0.0
    raise ValueError(f"h_kind must be 'enhanced' or 'classical', got {h_kind!r}")


def max_stable_step(h_kind: str, model: EnhancedHamiltonian) -> float:
    """Largest |dt| :func:`evolve` accepts for the flow: ``MAX_STABLE_STEP``
    over the force scale of its (attenuated or bare) potential."""
    scale = _flow_pieces(h_kind, model)[1].force_scale()
    return MAX_STABLE_STEP / scale if scale else math.inf


def evolve(
    h_kind: str,
    model: EnhancedHamiltonian,
    start: PhasePoint,
    dt: float,
    steps: int,
) -> Trajectory:
    """Leapfrog (kick-drift-kick) trajectory with energies at every sample.

    For the free potential the drift q(t) = q(0) + 2 p t is exact.  dt may
    be negative, which runs the (time reversible) scheme backward.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    limit = max_stable_step(h_kind, model)
    if abs(dt) > limit:
        raise ValueError(
            f"step {dt} too large for the force scale; require |dt| <= {limit:.6g} "
            f"(|dt| * scale <= {MAX_STABLE_STEP})"
        )
    shift, potential, offset = _flow_pieces(h_kind, model)
    harmonics = enumerate(zip(potential.a, potential.b), start=1)
    terms = [(float(n), an, bn) for n, (an, bn) in harmonics]

    # scalar math in the inner loop; harmonic counts are tiny and the
    # step count is not
    def force(q):
        f = 0.0
        for n, an, bn in terms:
            f += n * (an * math.sin(n * q) - bn * math.cos(n * q))
        return f

    qs = np.empty(steps + 1)
    ps = np.empty(steps + 1)
    q, p = start.q_unwrapped, start.p
    qs[0], ps[0] = q, p
    half = 0.5 * dt
    # the closing kick of one step and the opening kick of the next share q
    f = force(q)
    for i in range(1, steps + 1):
        p_half = p + half * f
        q = q + dt * 2.0 * (p_half + shift)
        f = force(q)
        p = p_half + half * f
        qs[i], ps[i] = q, p

    return Trajectory(
        times=dt * np.arange(steps + 1),
        q=wrap_angle(qs),
        q_unwrapped=qs,
        p=ps,
        energies=(ps + shift) ** 2 + offset + potential.value(qs),
    )

