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
from circleq.dynamics import evolve

from oracles import (
    action_along,
    alpha_invariance_check,
    leapfrog_loop,
    phase_point,
    potential_derivative,
    winding_number,
)


def pendulum_model(r=2.0, alpha=0.0, hbar=1.0):
    return EnhancedHamiltonian.build(TrigPotential(a=(1.0,)), FiducialSpec(r=r, alpha=alpha, hbar=hbar))


def free_model(alpha=0.0, hbar=1.0):
    return EnhancedHamiltonian.build(TrigPotential(), FiducialSpec(r=2.0, alpha=alpha, hbar=hbar))


def test_free_drift_is_exact():
    traj = evolve("classical", free_model(), 1.0, 0.0, 0.01, 100)
    assert np.max(np.abs(traj.q_unwrapped - 2.0 * traj.times)) < 1e-12
    assert np.all(traj.p == 1.0)
    assert np.allclose(traj.q, (traj.q_unwrapped + math.pi) % (2 * math.pi) - math.pi)


def test_wrapped_chart_stays_in_range():
    traj = evolve("classical", pendulum_model(), 1.6, 0.0, 0.01, 3000)
    assert np.all(traj.q >= -math.pi) and np.all(traj.q < math.pi)
    assert winding_number(traj) >= 3
    # samples the chart already holds are the unwrapped angle, bit for bit
    inside = (traj.q_unwrapped >= -math.pi) & (traj.q_unwrapped < math.pi)
    assert np.array_equal(traj.q[inside], traj.q_unwrapped[inside])


@pytest.mark.parametrize("kind", ["classical", "enhanced"])
def test_leapfrog_step_against_the_force_oracle(kind):
    # one kick-drift-kick step written out with V' from the oracle, for a
    # potential with cosine and sine terms
    spec = FiducialSpec(r=1.5, alpha=0.3, hbar=0.5)
    model = EnhancedHamiltonian.build(TrigPotential(a0=0.2, a=(1.0, -0.4), b=(0.3, 0.25)), spec)
    potential, shift = model.potential, 0.0
    if kind == "enhanced":
        potential, shift = model.effective_potential(), spec.hbar * spec.alpha
    q, p, dt = 0.9, -0.6, 0.01
    p_half = p - 0.5 * dt * potential_derivative(potential, q)
    q1 = q + 2.0 * dt * (p_half + shift)
    p1 = p_half - 0.5 * dt * potential_derivative(potential, q1)
    traj = evolve(kind, model, p, q, dt, 1)
    assert traj.q_unwrapped[1] == pytest.approx(q1, abs=1e-15)
    assert traj.p[1] == pytest.approx(p1, abs=1e-15)


def test_step_size_rejection():
    model = pendulum_model()
    with pytest.raises(ValueError):
        evolve("classical", model, 0.0, 0.0, 0.2, 10)
    with pytest.raises(ValueError):
        evolve("neither", model, 0.0, 0.0, 0.01, 10)


def test_energy_no_secular_drift():
    # small oscillation about the potential minimum at q = pi; the frozen
    # bound 1e-6 |E| was measured at these exact parameters
    model = pendulum_model()
    traj = evolve("classical", model, 0.0, math.pi - 0.3, 0.002, 100000)
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
    traj = evolve(h_kind, model, 0.7, 2.0, 0.01, 500)
    if h_kind == "enhanced":
        expected = enhanced_hamiltonian(model, traj.p, traj.q_unwrapped)
    else:
        expected = classical_hamiltonian(model.potential, traj.p, traj.q_unwrapped)
    assert traj.energies.shape == (501,)
    assert np.all(np.abs(traj.energies - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))


def scalar_leapfrog_reference(h_kind, model, p0, q0, dt, steps):
    """Kick-drift-kick with two force evaluations per step, each a generator
    sum: the plain form of the scheme that ``evolve`` must reproduce bit for
    bit."""
    if h_kind == "enhanced":
        shift, potential, offset = model.spec.hbar * model.spec.alpha, model.effective_potential(), model.kinetic_offset
    else:
        shift, potential, offset = 0.0, model.potential, 0.0
    terms = [(float(n), an, bn) for n, (an, bn) in enumerate(zip(potential.a, potential.b), start=1)]

    def force(q):
        return sum(n * (an * math.sin(n * q) - bn * math.cos(n * q)) for n, an, bn in terms)

    qs, ps = np.empty(steps + 1), np.empty(steps + 1)
    q, p = q0, p0
    qs[0], ps[0] = q, p
    half = 0.5 * dt
    for i in range(1, steps + 1):
        p_half = p + half * force(q)
        q = q + dt * 2.0 * (p_half + shift)
        p = p_half + half * force(q)
        qs[i], ps[i] = q, p
    return qs, ps, (ps + shift) ** 2 + offset + potential.value(qs)


@pytest.mark.parametrize("h_kind", ["classical", "enhanced"])
@pytest.mark.parametrize("dt", [0.01, -0.01])
@pytest.mark.parametrize(
    "potential",
    [
        TrigPotential(),
        TrigPotential(a=(1.0,)),
        TrigPotential(a=(1.0, 0.3), b=(0.2,)),
        TrigPotential(a0=0.4, a=(0.8, -0.3, 0.15), b=(0.1, 0.0, -0.2)),
    ],
    ids=["free", "pendulum", "sine", "degree3"],
)
def test_leapfrog_matches_scalar_reference(h_kind, dt, potential):
    model = EnhancedHamiltonian.build(potential, FiducialSpec(r=1.5, alpha=0.3, hbar=0.2))
    traj = evolve(h_kind, model, 0.7, 2.0, dt, 3000)
    qs, ps, energies = scalar_leapfrog_reference(h_kind, model, 0.7, 2.0, dt, 3000)
    assert np.array_equal(traj.q_unwrapped, qs)
    assert np.array_equal(traj.p, ps)
    assert np.array_equal(traj.energies, energies)


@pytest.mark.parametrize("h_kind", ["classical", "enhanced"])
@pytest.mark.parametrize("dt", [0.01, -0.003])
@pytest.mark.parametrize(
    "potential", [TrigPotential(a=(1.0,)), TrigPotential(a=(1.0, 0.3), b=(0.2,))],
    ids=["pendulum", "sine"],
)
def test_restart_from_a_sample_continues_the_trajectory_bit_for_bit(h_kind, dt, potential):
    # q0 is the unwrapped coordinate, so (p_i, q_unwrapped_i) is the whole
    # state of the flow at sample i: the leapfrog picks up where it stood
    model = EnhancedHamiltonian.build(potential, FiducialSpec(r=1.5, alpha=0.3, hbar=0.2))
    steps, i = 3000, 1234
    traj = evolve(h_kind, model, 0.7, 2.0, dt, steps)
    rest = evolve(h_kind, model, traj.p[i], traj.q_unwrapped[i], dt, steps - i)
    for field in ("q", "q_unwrapped", "p", "energies"):
        assert np.array_equal(getattr(rest, field), getattr(traj, field)[i:]), field


def same_bits(got, expected):
    return np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize(
    "potential",
    [
        TrigPotential(a=(1.0,)),
        TrigPotential(a=(-0.7,)),
        TrigPotential(a=(0.0,)),
        TrigPotential(a=(1.0, 0.3), b=(0.0, 0.2)),
        TrigPotential(a=(1.0, 1.0), b=(0.2, 0.0)),
        TrigPotential(b=(0.5,)),
        TrigPotential(a=(2.0,), b=(-0.0,)),
        TrigPotential(),
    ],
    ids=["pendulum", "inverted", "zero", "two_harmonics", "sine_first", "sine_only",
         "negative_zero_sine", "free"],
)
def test_step_loop_matches_the_force_closure_loop_bit_for_bit(potential):
    # the one-cosine-harmonic force 0.0 + a1 sin q and the inlined generic sum
    # give the bits of one force call per step, signed zeros included
    model = EnhancedHamiltonian.build(potential, FiducialSpec(r=1.5, alpha=0.3, hbar=0.2))
    starts = [(0.0, 0.0), (-0.0, -0.0), (0.0, -math.pi)]
    for h_kind in ("classical", "enhanced"):
        for dt in (0.002, -0.003):
            for p0, q0 in starts:
                traj = evolve(h_kind, model, p0, q0, dt, 2000)
                qs, ps = leapfrog_loop(h_kind, model, p0, q0, dt, 2000)
                case = (h_kind, dt, p0, q0)
                assert same_bits(traj.q_unwrapped, qs), case
                assert same_bits(traj.p, ps), case


def test_leapfrog_second_order():
    model = pendulum_model()
    q0 = math.pi - 0.8
    horizon = 4.0
    reference = evolve("classical", model, 0.0, q0, 0.01 / 16, int(horizon / (0.01 / 16)))
    dts = (0.08, 0.04, 0.02, 0.01)
    errors = []
    for dt in dts:
        traj = evolve("classical", model, 0.0, q0, dt, int(horizon / dt))
        errors.append(
            abs(traj.q_unwrapped[-1] - reference.q_unwrapped[-1])
            + abs(traj.p[-1] - reference.p[-1])
        )
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_reversibility():
    model = pendulum_model()
    p0, q0 = 0.0, math.pi - 0.8
    forward = evolve("classical", model, p0, q0, 0.01, 1000)
    back = evolve("classical", model, *phase_point(forward, 1000), -0.01, 1000)
    assert abs(back.q_unwrapped[-1] - q0) < 1e-9
    assert abs(back.p[-1] - p0) < 1e-9


def test_reversibility_enhanced_with_twist():
    model = pendulum_model(alpha=0.3)
    p0, q0 = 0.8, 0.5
    forward = evolve("enhanced", model, p0, q0, 0.01, 1000)
    back = evolve("enhanced", model, *phase_point(forward, 1000), -0.01, 1000)
    assert abs(back.q_unwrapped[-1] - q0) < 1e-9
    assert abs(back.p[-1] - p0) < 1e-9


def test_enhanced_tracks_classical_at_large_concentration():
    # the attenuated flow deviates from the bare one by at most the
    # harmonic suppression scale
    model = pendulum_model(r=1e4, hbar=1.0)
    steps = 1000
    enhanced = evolve("enhanced", model, 0.4, 2.0, 0.01, steps)
    classical = evolve("classical", model, 0.4, 2.0, 0.01, steps)
    deviation = max(
        float(np.max(np.abs(enhanced.q_unwrapped - classical.q_unwrapped))),
        float(np.max(np.abs(enhanced.p - classical.p))),
    )
    assert deviation <= 10.0 * float(np.max(1.0 - model.attenuation))


def test_alpha_invariance_and_negative_control():
    model = pendulum_model()
    alphas = (0.0, 0.25, 0.5, 0.75)
    assert alpha_invariance_check(model, 0.7, 0.5, alphas, 0.01, 1000) <= 1e-10
    assert alpha_invariance_check(model, 0.7, 0.5, (0.0,), 0.01, 100) == 0.0
    control = alpha_invariance_check(model, 0.7, 0.5, alphas, 0.01, 1000, compensated=False)
    assert control > 1e-3


def test_action_static_point():
    # rest at the minimum of the attenuated well: qdot = 0 needs p = -hbar alpha
    model = pendulum_model(alpha=0.25)
    spec = model.spec
    traj = evolve("enhanced", model, -spec.hbar * spec.alpha, -math.pi, 0.01, 500)
    horizon = traj.times[-1]
    h_min = traj.energies[0]
    assert np.max(np.abs(traj.q_unwrapped + math.pi)) < 1e-14
    assert action_along(traj, model) == pytest.approx(-h_min * horizon, rel=1e-12)


def test_action_surface_term_counts_winding():
    model = free_model(alpha=0.3)
    # drift rate 2 p0 closes one full turn in exactly T = 1
    traj = evolve("classical", model, math.pi, -1.0, 0.01, 100)
    assert winding_number(traj) == 1
    with_surface = action_along(traj, model, include_surface=True)
    without = action_along(traj, model, include_surface=False)
    assert abs((with_surface - without) - 2.0 * math.pi * 0.3) < 1e-10


def test_action_surface_term_zero_winding_loop():
    # a libration returns to its start: no net boundary value
    model = pendulum_model(alpha=0.4)
    period = 2 * math.pi / math.sqrt(2.0 * model.attenuation[0])
    dt = period / 4096
    traj = evolve("enhanced", model, 0.0, math.pi - 0.5, dt, 4096)
    gap = action_along(traj, model, True) - action_along(traj, model, False)
    # q(T) returns near q(0); the surface value is hbar alpha times the gap
    assert abs(gap) <= 0.4 * abs(traj.q_unwrapped[-1] - traj.q_unwrapped[0]) + 1e-12
    assert winding_number(traj) == 0


def test_action_richardson_refinement():
    model = pendulum_model()
    horizon = 2.0
    values = []
    for dt in (0.02, 0.01, 0.005):
        traj = evolve("classical", model, 0.3, math.pi - 0.7, dt, int(horizon / dt))
        values.append(action_along(traj, model))
    first = abs(values[0] - values[1])
    second = abs(values[1] - values[2])
    assert first / second == pytest.approx(4.0, rel=0.2)
