import math

import numpy as np
import pytest

from circleq.fiducial import FiducialSpec
from circleq.enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    classical_hamiltonian,
    enhanced_hamiltonian,
)
from circleq.dynamics import (
    PhasePoint,
    action_along,
    alpha_invariance_check,
    evolve,
    winding_number,
)


def pendulum_model(r=2.0, alpha=0.0, hbar=1.0):
    return EnhancedHamiltonian.build(TrigPotential.pendulum(), FiducialSpec(r=r, alpha=alpha, hbar=hbar))


def free_model(alpha=0.0, hbar=1.0):
    return EnhancedHamiltonian.build(TrigPotential.free(), FiducialSpec(r=2.0, alpha=alpha, hbar=hbar))


def test_phase_point_consistency():
    point = PhasePoint.start(3.5, 1.0)
    assert -math.pi <= point.q < math.pi
    assert point.q == point.q_unwrapped
    with pytest.raises(ValueError):
        PhasePoint(q=0.0, q_unwrapped=1.0, p=0.0)


def test_free_drift_is_exact():
    traj = evolve("classical", free_model(), PhasePoint.start(0.0, 1.0), 0.01, 100)
    assert np.max(np.abs(traj.q_unwrapped - 2.0 * traj.times)) < 1e-12
    assert np.all(traj.p == 1.0)
    assert np.allclose(traj.q, (traj.q_unwrapped + math.pi) % (2 * math.pi) - math.pi)


def test_wrapped_chart_stays_in_range():
    traj = evolve("classical", pendulum_model(), PhasePoint.start(0.0, 1.6), 0.01, 3000)
    assert np.all(traj.q >= -math.pi) and np.all(traj.q < math.pi)
    assert winding_number(traj) >= 3


def test_step_size_rejection():
    model = pendulum_model()
    with pytest.raises(ValueError):
        evolve("classical", model, PhasePoint.start(0.0, 0.0), 0.2, 10)
    with pytest.raises(ValueError):
        evolve("neither", model, PhasePoint.start(0.0, 0.0), 0.01, 10)


def test_energy_no_secular_drift():
    # small oscillation about the potential minimum at q = pi; the frozen
    # bound 1e-6 |E| was measured at these exact parameters
    model = pendulum_model()
    start = PhasePoint.start(math.pi - 0.3, 0.0)
    traj = evolve("classical", model, start, 0.002, 100000)
    drift = np.max(np.abs(traj.energies - traj.energies[0]))
    assert drift <= 1e-6 * abs(traj.energies[0])
    # oscillation, not growth: the late-time band is no wider than the early one
    early = np.max(np.abs(traj.energies[:10000] - traj.energies[0]))
    late = np.max(np.abs(traj.energies[-10000:] - traj.energies[0]))
    assert late <= 1.5 * early + 1e-15


@pytest.mark.parametrize("h_kind", ["classical", "enhanced"])
def test_energies_are_the_flow_hamiltonian(h_kind):
    # the energy column is the paper's H_cs (enhanced) or p^2 + V (classical)
    # at every sample, not a separate evaluation that could drift from it
    potential = TrigPotential(a0=0.3, a=(1.0, -0.4), b=(0.0, 0.25))
    model = EnhancedHamiltonian.build(potential, FiducialSpec(r=1.5, alpha=0.3, hbar=0.2))
    traj = evolve(h_kind, model, PhasePoint.start(2.0, 0.7), 0.01, 500)
    if h_kind == "enhanced":
        expected = enhanced_hamiltonian(model, traj.p, traj.q_unwrapped)
    else:
        expected = classical_hamiltonian(model.potential, traj.p, traj.q_unwrapped)
    assert traj.energies.shape == (501,)
    assert np.all(np.abs(traj.energies - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))


def test_leapfrog_second_order():
    model = pendulum_model()
    start = PhasePoint.start(math.pi - 0.8, 0.0)
    horizon = 4.0
    reference = evolve("classical", model, start, 0.01 / 16, int(horizon / (0.01 / 16)))
    dts = (0.08, 0.04, 0.02, 0.01)
    errors = []
    for dt in dts:
        traj = evolve("classical", model, start, dt, int(horizon / dt))
        errors.append(
            abs(traj.q_unwrapped[-1] - reference.q_unwrapped[-1])
            + abs(traj.p[-1] - reference.p[-1])
        )
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_reversibility():
    model = pendulum_model()
    start = PhasePoint.start(math.pi - 0.8, 0.0)
    forward = evolve("classical", model, start, 0.01, 1000)
    back = evolve("classical", model, forward.point(1000), -0.01, 1000)
    assert abs(back.q_unwrapped[-1] - start.q) < 1e-9
    assert abs(back.p[-1] - start.p) < 1e-9


def test_reversibility_enhanced_with_twist():
    model = pendulum_model(alpha=0.3)
    start = PhasePoint.start(0.5, 0.8)
    forward = evolve("enhanced", model, start, 0.01, 1000)
    back = evolve("enhanced", model, forward.point(1000), -0.01, 1000)
    assert abs(back.q_unwrapped[-1] - start.q) < 1e-9
    assert abs(back.p[-1] - start.p) < 1e-9


def test_enhanced_tracks_classical_at_large_concentration():
    # the attenuated flow deviates from the bare one by at most the
    # harmonic suppression scale
    model = pendulum_model(r=1e4, hbar=1.0)
    start = PhasePoint.start(2.0, 0.4)
    steps = 1000
    enhanced = evolve("enhanced", model, start, 0.01, steps)
    classical = evolve("classical", model, start, 0.01, steps)
    deviation = max(
        float(np.max(np.abs(enhanced.q_unwrapped - classical.q_unwrapped))),
        float(np.max(np.abs(enhanced.p - classical.p))),
    )
    assert deviation <= 10.0 * float(np.max(1.0 - model.attenuation))


def test_alpha_invariance_and_negative_control():
    model = pendulum_model()
    start = PhasePoint.start(0.5, 0.7)
    alphas = (0.0, 0.25, 0.5, 0.75)
    assert alpha_invariance_check(model, start, alphas, 0.01, 1000) <= 1e-10
    assert alpha_invariance_check(model, start, (0.0,), 0.01, 100) == 0.0
    control = alpha_invariance_check(model, start, alphas, 0.01, 1000, compensated=False)
    assert control > 1e-3


def test_action_static_point():
    # rest at the minimum of the attenuated well: qdot = 0 needs p = -hbar alpha
    model = pendulum_model(alpha=0.25)
    spec = model.spec
    start = PhasePoint.start(math.pi, -spec.hbar * spec.alpha)  # wraps to -pi
    traj = evolve("enhanced", model, start, 0.01, 500)
    horizon = traj.times[-1]
    h_min = traj.energies[0]
    assert np.max(np.abs(traj.q_unwrapped - start.q)) < 1e-14
    assert action_along(traj, model) == pytest.approx(-h_min * horizon, rel=1e-12)


def test_action_surface_term_counts_winding():
    model = free_model(alpha=0.3)
    # drift rate 2 p0 closes one full turn in exactly T = 1
    start = PhasePoint.start(-1.0, math.pi)
    traj = evolve("classical", model, start, 0.01, 100)
    assert winding_number(traj) == 1
    with_surface = action_along(traj, model, include_surface=True)
    without = action_along(traj, model, include_surface=False)
    assert abs((with_surface - without) - 2.0 * math.pi * 0.3) < 1e-10


def test_action_surface_term_zero_winding_loop():
    # a libration returns to its start: no net boundary value
    model = pendulum_model(alpha=0.4)
    start = PhasePoint.start(math.pi - 0.5, 0.0)
    period = 2 * math.pi / math.sqrt(2.0 * model.attenuation[0])
    dt = period / 4096
    traj = evolve("enhanced", model, start, dt, 4096)
    gap = action_along(traj, model, True) - action_along(traj, model, False)
    # q(T) returns near q(0); the surface value is hbar alpha times the gap
    assert abs(gap) <= 0.4 * abs(traj.q_unwrapped[-1] - traj.q_unwrapped[0]) + 1e-12
    assert winding_number(traj) == 0


def test_action_richardson_refinement():
    model = pendulum_model()
    start = PhasePoint.start(math.pi - 0.7, 0.3)
    horizon = 2.0
    values = []
    for dt in (0.02, 0.01, 0.005):
        traj = evolve("classical", model, start, dt, int(horizon / dt))
        values.append(action_along(traj, model))
    first = abs(values[0] - values[1])
    second = abs(values[1] - values[2])
    assert first / second == pytest.approx(4.0, rel=0.2)
