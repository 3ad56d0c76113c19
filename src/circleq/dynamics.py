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
    p0: float,
    q0: float,
    dt: float,
    steps: int,
) -> Trajectory:
    """Leapfrog (kick-drift-kick) trajectory from momentum p0 and angle q0,
    with energies at every sample.

    q0 is the unwrapped coordinate: ``q_unwrapped`` starts at it as given
    and ``q`` is its chart, so a run from sample i of a trajectory continues
    that trajectory bit for bit.  For the free potential the drift is exact:
    q(t) = q(0) + 2 p t on the classical flow and q(0) + 2 (p + hbar alpha) t
    on the enhanced one.  dt may be negative, which runs the (time
    reversible) scheme backward.
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
    # scalar math with the force inlined: harmonic counts are tiny and the
    # step count is not.  One cosine harmonic (the pendulum) takes
    # f = 0.0 + a1 sin q, the generic sum's bits: n = 1.0 multiplies exactly,
    # and the two differ only in the sign of a zero, which 0.0 + drops
    pendulum = len(terms) == 1 and terms[0][2] == 0.0
    a1, sin, cos = terms[0][1] if pendulum else 0.0, math.sin, math.cos
    qs, ps = np.empty(steps + 1), np.empty(steps + 1)
    q, p, p_half = float(q0), float(p0), 0.0
    half, drift = 0.5 * dt, dt * 2.0
    # iteration i kicks twice with the force at q_i, closing step i and
    # opening step i + 1, whose drift goes unused after the last sample
    for i in range(steps + 1):
        if pendulum:
            f = 0.0 + a1 * sin(q)
        else:
            f = 0.0
            for n, an, bn in terms:
                f += n * (an * sin(n * q) - bn * cos(n * q))
        if i:
            p = p_half + half * f
        qs[i] = q
        ps[i] = p
        p_half = p + half * f
        q = q + drift * (p_half + shift)

    return Trajectory(
        times=dt * np.arange(steps + 1),
        q=wrap_angle(qs),
        q_unwrapped=qs,
        p=ps,
        energies=(ps + shift) ** 2 + offset + potential.value(qs),
    )

