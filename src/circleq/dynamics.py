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
from dataclasses import dataclass, replace

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

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(q=float(self.q[i]), q_unwrapped=float(self.q_unwrapped[i]), p=float(self.p[i]))


def _flow_pieces(h_kind: str, model: EnhancedHamiltonian):
    """Kinetic shift, potential and energy offset of the flow: its
    Hamiltonian is (p + shift)^2 + offset + potential(q)."""
    if h_kind == "enhanced":
        return model.spec.hbar * model.spec.alpha, model.effective_potential(), model.kinetic_offset
    if h_kind == "classical":
        return 0.0, model.effective_potential(attenuated=False), 0.0
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
        return sum(n * (an * math.sin(n * q) - bn * math.cos(n * q)) for n, an, bn in terms)

    qs = np.empty(steps + 1)
    ps = np.empty(steps + 1)
    q, p = start.q_unwrapped, start.p
    qs[0], ps[0] = q, p
    half = 0.5 * dt
    for i in range(1, steps + 1):
        p_half = p + half * force(q)
        q = q + dt * 2.0 * (p_half + shift)
        p = p_half + half * force(q)
        qs[i], ps[i] = q, p

    return Trajectory(
        times=dt * np.arange(steps + 1),
        q=wrap_angle(qs),
        q_unwrapped=qs,
        p=ps,
        energies=(ps + shift) ** 2 + offset + potential.value(qs),
    )


def alpha_invariance_check(
    model: EnhancedHamiltonian,
    start: PhasePoint,
    alphas,
    dt: float,
    steps: int,
    compensated: bool = True,
) -> float:
    """Maximum pairwise deviation of the enhanced flow across twists.

    Each run keeps r, hbar and the potential and replaces the twist; with
    ``compensated`` the initial momentum is shifted to p0 - hbar alpha so
    every run represents the same physical state, and the flows compared
    in the variable p(t) + hbar alpha are algebraically identical.
    Without compensation the runs start at distinct physical momenta and
    drift apart (negative control).
    """
    hbar = model.spec.hbar
    tracks = []
    for alpha in alphas:
        spec_a = replace(model.spec, alpha=alpha)
        model_a = EnhancedHamiltonian.build(model.potential, spec_a)
        p0 = start.p - hbar * float(spec_a.alpha) if compensated else start.p
        traj = evolve("enhanced", model_a, PhasePoint.start(start.q, p0), dt, steps)
        tracks.append((traj.q_unwrapped, traj.p + hbar * spec_a.alpha))
    worst = 0.0
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            dq = np.max(np.abs(tracks[i][0] - tracks[j][0]))
            dp = np.max(np.abs(tracks[i][1] - tracks[j][1]))
            worst = max(worst, float(dq), float(dp))
    return worst


def winding_number(trajectory: Trajectory) -> int:
    """Net number of full turns accumulated by the unwrapped angle."""
    return int(round((trajectory.q_unwrapped[-1] - trajectory.q_unwrapped[0]) / (2.0 * math.pi)))


def action_along(
    trajectory: Trajectory, model: EnhancedHamiltonian, include_surface: bool = False
) -> float:
    """Midpoint-rule value of the integral of [p qdot - H] dt, optionally
    adding the boundary value hbar alpha (q(T) - q(0)) of the surface term
    (winding aware through the unwrapped angle)."""
    dq = np.diff(trajectory.q_unwrapped)
    p_mid = 0.5 * (trajectory.p[1:] + trajectory.p[:-1])
    e_mid = 0.5 * (trajectory.energies[1:] + trajectory.energies[:-1])
    dt = np.diff(trajectory.times)
    action = float(p_mid @ dq - e_mid @ dt)
    if include_surface:
        hbar, alpha = model.spec.hbar, model.spec.alpha
        action += hbar * alpha * (trajectory.q_unwrapped[-1] - trajectory.q_unwrapped[0])
    return action
