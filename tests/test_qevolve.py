import math
import tracemalloc
import warnings

import numpy as np
import pytest

from circleq.specfun import QuadratureGrid, integrate_periodic, TWO_PI
from circleq.hilbert import MomentumState, TwistedBasis, default_cutoff
from circleq.fiducial import FiducialSpec
from circleq.coherent import CoherentLabel, coherent_state
from circleq.enhanced import EnhancedHamiltonian, TrigPotential
from circleq.qevolve import (
    TIME_CHUNK,
    WINDOW_TAIL,
    build_hamiltonian,
    compare_restricted,
    comparison_basis,
    evolve_quantum,
)


def basis_state(basis, n):
    coeffs = np.zeros(basis.dimension, dtype=complex)
    coeffs[n + basis.cutoff_n] = 1.0
    return MomentumState(basis, coeffs)


def dense_reference_trace(ham, initial, dt, steps):
    """Oracle propagation: complex eigh of the dense matrix, every mode,
    every state at once, and the energy through the dense H @ states."""
    matrix = ham.matrix.astype(complex)
    energies, modes = np.linalg.eigh(matrix)
    amps = modes.conj().T @ initial.coeffs
    times = dt * np.arange(steps + 1)
    phases = np.exp(-1j * np.outer(energies, times) / ham.basis.hbar)
    states = modes @ (phases * amps[:, None])
    weights = np.abs(states) ** 2
    moment = np.sum(np.conj(states[1:, :]) * states[:-1, :], axis=0)
    return {
        "cos_q": moment.real,
        "sin_q": moment.imag,
        "mean_p": ham.basis.momenta() @ weights,
        "norm": weights.sum(axis=0),
        "energy": np.sum(np.conj(states) * (matrix @ states), axis=0).real,
    }


def coherent_case(potential, steps, r=5.0, hbar=0.1, p=0.4, q=2.7):
    spec = FiducialSpec(r=r, alpha=0.3, hbar=hbar)  # r/hbar = 50 by default
    model = EnhancedHamiltonian.build(potential, spec)
    label = CoherentLabel(p=p, q=q)
    basis = comparison_basis(model, label)
    state = coherent_state(label, spec, basis).normalized()
    return build_hamiltonian(potential, basis), state, 0.01, steps


def spread_case():
    # a random state loads every eigenmode far above the window tail
    basis = TwistedBasis(0.3, 1.0, 6)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    state = MomentumState(basis, coeffs).normalized()
    ham = build_hamiltonian(TrigPotential(a=(0.5, 0.1), b=(0.2, 0.0)), basis)
    return ham, state, 0.05, 200


SINE_TERMS = TrigPotential(a=(0.8, 0.2), b=(0.1, -0.3))


def edge_case():
    # r/hbar = 10 boosted to p/hbar = 34 on the lattice |n| <= 50: the
    # state's weight reaches the upper lattice edge (2e-11 on the last slot)
    spec = FiducialSpec(r=1.0, alpha=0.3, hbar=0.1)
    basis = TwistedBasis(spec.alpha, spec.hbar, 50)
    state = coherent_state(CoherentLabel(p=3.4, q=-2.0), spec, basis).normalized()
    assert abs(state.coeffs[-1]) ** 2 > WINDOW_TAIL  # so the block ends at the edge
    return build_hamiltonian(SINE_TERMS, basis), state, 0.01, 300


ORACLE_CASES = {
    "real": lambda: coherent_case(TrigPotential(a=(0.8, 0.2)), 300),
    "complex": lambda: coherent_case(SINE_TERMS, 300),
    "all_modes": spread_case,
    "ragged_chunks": lambda: coherent_case(TrigPotential.pendulum(), 2 * TIME_CHUNK + 37),
    # r/hbar = 10 over 50 time units: the first block's edge leak, times
    # T/hbar = 500, breaks the bound, so the block must grow
    "long_horizon": lambda: coherent_case(SINE_TERMS, 5000, r=1.0, p=0.3, q=1.0),
    "lattice_edge": edge_case,
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_propagation_matches_dense_oracle(name):
    ham, state, dt, steps = ORACLE_CASES[name]()
    dim = ham.basis.dimension
    trace = evolve_quantum(ham, state, dt, steps)
    expected = dense_reference_trace(ham, state, dt, steps)
    for key, values in expected.items():
        got = getattr(trace, key)
        assert got.shape == (steps + 1,)
        assert np.all(np.abs(got - values) <= 1e-12 * np.maximum(1.0, np.abs(values))), key

    assert trace.discarded_weight <= WINDOW_TAIL
    assert trace.truncation_bound <= math.sqrt(WINDOW_TAIL) == 1e-12
    assert trace.modes_kept <= trace.slots_kept <= dim
    if name == "all_modes":
        assert trace.modes_kept == dim and trace.discarded_weight == 0.0
        assert trace.slots_kept == dim
    else:
        assert trace.modes_kept < dim
        assert trace.slots_kept < dim
    real = not any(ham.potential.b)
    assert ham.matrix.dtype == (np.float64 if real else np.complex128)


def test_long_horizon_grows_the_block():
    # the same state over a short horizon settles on the first block
    ham, state, dt, steps = ORACLE_CASES["long_horizon"]()
    short = evolve_quantum(ham, state, dt, 300)
    long = evolve_quantum(ham, state, dt, steps)
    assert short.slots_kept < long.slots_kept < ham.basis.dimension
    assert max(short.truncation_bound, long.truncation_bound) <= 1e-12


def test_huge_couplings_keep_the_bound_finite():
    # squared edge leaks of a 1e300 coupling overflowed to inf (with a
    # RuntimeWarning) before the residual norms were taken through hypot
    ham, state, _, steps = coherent_case(TrigPotential(a=(1e300,)), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = evolve_quantum(ham, state, 0.01 / math.sqrt(1e300), steps)
    assert math.isfinite(trace.truncation_bound)
    assert np.all(np.isfinite(trace.energy))


def test_propagation_memory_does_not_grow_with_steps():
    # one complex (dim, steps + 1) array alone would take about 64 MB here
    spec = FiducialSpec(r=10.0, alpha=0.3)
    basis = TwistedBasis(0.3, 1.0, 100)
    ham = build_hamiltonian(TrigPotential.pendulum(), basis)
    state = coherent_state(CoherentLabel(p=0.5, q=1.0), spec, basis).normalized()
    tracemalloc.start()
    try:
        trace = evolve_quantum(ham, state, 0.01, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dimension == 201 and trace.times.size == 20001
    assert peak < 16 * 2**20


def test_free_hamiltonian_is_diagonal():
    basis = TwistedBasis(0.3, 0.5, 6)
    ham = build_hamiltonian(TrigPotential.free(), basis)
    assert np.allclose(ham.matrix, np.diag(basis.momenta() ** 2))


def test_cosine_band_matrix_by_hand():
    # single cos Q harmonic, alpha = 0, N = 2: kinetic diagonal (4,1,0,1,4)
    # and both first off-diagonals equal to 1/2
    ham = build_hamiltonian(TrigPotential(a=(1.0,)), TwistedBasis(0.0, 1.0, 2))
    expected = np.diag([4.0, 1.0, 0.0, 1.0, 4.0]).astype(complex)
    expected += 0.5 * (np.eye(5, k=1) + np.eye(5, k=-1))
    assert np.max(np.abs(ham.matrix - expected)) < 1e-15


def test_sine_band_matrix_hermitian():
    ham = build_hamiltonian(TrigPotential(b=(1.0,)), TwistedBasis(0.0, 1.0, 2))
    assert np.allclose(np.diag(ham.matrix, -1), -0.5j)
    assert np.allclose(np.diag(ham.matrix, 1), 0.5j)
    assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) == 0.0


def test_band_values_match_quadrature():
    # quadrature Fourier coefficients of V reproduce every band
    potential = TrigPotential(a0=-0.4, a=(0.9, 0.1, -0.7), b=(0.2, -0.5, 0.3))
    grid = QuadratureGrid.make(512)
    samples = potential.value(grid.nodes)
    from circleq.qevolve import potential_band_value

    basis = TwistedBasis(0.2, 1.0, 8)
    ham = build_hamiltonian(potential, basis)
    kinetic = np.diag(basis.momenta() ** 2)
    for k in range(-4, 5):
        quad = integrate_periodic(samples * np.exp(-1j * k * grid.nodes), grid) / TWO_PI
        assert abs(quad - potential_band_value(potential, k)) < 1e-10
        # <m|V|n> = V_{m-n} on the band m - n = k
        assert np.max(np.abs(np.diag(ham.matrix - kinetic, -k) - quad)) < 1e-10
    assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) == 0.0


def test_cutoff_must_exceed_degree():
    with pytest.raises(ValueError):
        build_hamiltonian(TrigPotential(a=(1.0, 1.0)), TwistedBasis(0.0, 1.0, 2))


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.77])
def test_free_spectrum_exact(alpha):
    basis = TwistedBasis(alpha, 1.0, 32)
    ham = build_hamiltonian(TrigPotential.free(), basis)
    eigenvalues = np.linalg.eigvalsh(ham.matrix)
    exact = np.sort(basis.momenta() ** 2)
    assert np.max(np.abs(eigenvalues - exact)) <= 1e-10


def test_twist_splits_doublets():
    hbar = 1.0
    plain = TwistedBasis(0.0, hbar, 8)
    for n in range(1, 9):
        assert (hbar * (n + 0.0)) ** 2 == (hbar * (-n + 0.0)) ** 2
    twisted = TwistedBasis(0.3, hbar, 8)
    for n in range(1, 9):
        up = (hbar * (n + 0.3)) ** 2
        down = (hbar * (-n + 0.3)) ** 2
        assert abs(up - down) == pytest.approx(4.0 * n * 0.3, abs=1e-12)


def test_stationary_state_traces_constant():
    basis = TwistedBasis(0.25, 1.0, 8)
    ham = build_hamiltonian(TrigPotential.free(), basis)
    trace = evolve_quantum(ham, basis_state(basis, 3), 0.05, 40)
    assert np.ptp(trace.mean_p) < 1e-12
    assert trace.mean_p[0] == pytest.approx(3.25)
    assert np.ptp(trace.cos_q) < 1e-12 and np.ptp(trace.sin_q) < 1e-12
    assert np.max(np.abs(trace.norm - 1.0)) < 1e-10


def test_free_coherent_momentum_and_dispersion():
    spec = FiducialSpec(r=8.0, alpha=0.25)
    basis = TwistedBasis(0.25, 1.0, default_cutoff(8.0) + 3)
    label = CoherentLabel(p=2.3, q=0.0)
    state = coherent_state(label, spec, basis).normalized()
    ham = build_hamiltonian(TrigPotential.free(), basis)
    trace = evolve_quantum(ham, state, 0.01, 400)
    assert np.max(np.abs(trace.mean_p - (label.p + 0.25))) < 1e-9
    assert np.all(trace.cos_q**2 + trace.sin_q**2 <= 1.0 + 1e-12)
    # the phase of <e^{iQ}> advances at the classical rate while the
    # modulus decays (dispersion)
    angles = np.unwrap(np.arctan2(trace.sin_q, trace.cos_q))
    early = slice(0, 40)
    rate = np.polyfit(trace.times[early], angles[early], 1)[0]
    assert rate == pytest.approx(2.0 * (label.p + 0.25), rel=1e-3)
    coherence = np.hypot(trace.cos_q, trace.sin_q)
    assert coherence[-1] < 0.5 * coherence[0]


def test_unitarity_and_energy_conservation():
    spec = FiducialSpec(r=5.0, alpha=0.1)
    basis = TwistedBasis(0.1, 1.0, default_cutoff(5.0, 2) + 2)
    ham = build_hamiltonian(TrigPotential(a=(0.8, 0.2), b=(0.1, -0.3)), basis)
    state = coherent_state(CoherentLabel(p=1.2, q=0.4), spec, basis).normalized()
    trace = evolve_quantum(ham, state, 0.02, 500)
    assert np.max(np.abs(trace.norm - 1.0)) < 1e-10
    assert np.max(np.abs(trace.energy - trace.energy[0])) < 1e-9


def test_initial_state_must_be_normalized():
    basis = TwistedBasis(0.0, 1.0, 4)
    ham = build_hamiltonian(TrigPotential.free(), basis)
    bad = MomentumState(basis, np.full(basis.dimension, 0.5 + 0j))
    with pytest.raises(ValueError):
        evolve_quantum(ham, bad, 0.1, 2)


def test_basis_mismatch_rejected():
    ham = build_hamiltonian(TrigPotential.free(), TwistedBasis(0.0, 1.0, 4))
    other = basis_state(TwistedBasis(0.5, 1.0, 4), 0)
    with pytest.raises(ValueError):
        evolve_quantum(ham, other, 0.1, 2)


def test_ehrenfest_rate_at_start():
    # d<P>/dt at t = 0 equals -<dV/dq>, estimated by a symmetric difference
    spec = FiducialSpec(r=6.0, alpha=0.25)
    potential = TrigPotential(a=(0.8, -0.3), b=(0.2, 0.1))
    basis = TwistedBasis(0.25, 1.0, default_cutoff(6.0, 2) + 3)
    state = coherent_state(CoherentLabel(p=1.3, q=0.7), spec, basis).normalized()
    ham = build_hamiltonian(potential, basis)
    dt = 1.5e-4
    forward = evolve_quantum(ham, state, dt, 1)
    backward = evolve_quantum(ham, state, -dt, 1)
    rate = (forward.mean_p[1] - backward.mean_p[1]) / (2.0 * dt)

    slope = TrigPotential(
        a=tuple(n * bn for n, (an, bn) in enumerate(zip(potential.a, potential.b), 1)),
        b=tuple(-n * an for n, (an, bn) in enumerate(zip(potential.a, potential.b), 1)),
    )
    gradient = build_hamiltonian(slope, basis).matrix - np.diag(basis.momenta() ** 2)
    expected = -float(np.vdot(state.coeffs, gradient @ state.coeffs).real)
    assert rate == pytest.approx(expected, abs=1e-6)


def test_compare_free_particle_momentum():
    spec = FiducialSpec(r=8.0, alpha=0.25)
    model = EnhancedHamiltonian.build(TrigPotential.free(), spec)
    report = compare_restricted(model, CoherentLabel(p=2.3, q=-0.5), total_time=5.0, dt=0.01)
    assert np.max(report.momentum_deviation) < 1e-9


def test_compare_pendulum_localized_vs_spread():
    hbar = 0.05
    label = CoherentLabel(p=0.0, q=math.pi - 0.4)
    sharp = EnhancedHamiltonian.build(
        TrigPotential.pendulum(), FiducialSpec(r=50 * hbar, alpha=0.25, hbar=hbar)
    )
    report = compare_restricted(sharp, label, total_time=4.6, dt=0.002)
    # one full small-oscillation period is ~4.5 time units; regression
    # bound 0.05 frozen per the acceptance contract (measured 0.013)
    assert float(np.max(report.phase_deviation)) < 0.05
    assert report.ehrenfest_window == pytest.approx(report.times[-1])

    spread = EnhancedHamiltonian.build(
        TrigPotential.pendulum(), FiducialSpec(r=2 * hbar, alpha=0.25, hbar=hbar)
    )
    control = compare_restricted(spread, label, total_time=4.6, dt=0.002)
    assert float(np.max(control.phase_deviation)) > 2.0 * float(np.max(report.phase_deviation))


def test_comparison_basis_covers_boost():
    spec = FiducialSpec(r=2.0, alpha=0.0, hbar=0.5)
    model = EnhancedHamiltonian.build(TrigPotential.pendulum(), spec)
    wide = comparison_basis(model, CoherentLabel(p=6.0, q=0.0))
    narrow = comparison_basis(model, CoherentLabel(p=0.0, q=0.0))
    assert wide.cutoff_n - narrow.cutoff_n == 12
