import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from circleq.specfun import TWO_PI
from circleq.hilbert import MomentumState, TwistedBasis, default_cutoff, wrap_angle
from circleq.fiducial import FiducialSpec
from circleq.coherent import coherent_state
from circleq.dynamics import evolve
from circleq.enhanced import EnhancedHamiltonian, TrigPotential
import circleq.qevolve as qevolve
from circleq.cli import main
from circleq.qevolve import (
    MARGIN_DIVISOR,
    TIME_CHUNK,
    WINDOW_TAIL,
    build_hamiltonian,
    compare_restricted,
    comparison_basis,
    evolve_quantum,
)

from oracles import QuadratureGrid, free_circle_moment, integrate_periodic


def basis_state(basis, n):
    coeffs = np.zeros(basis.dimension, dtype=complex)
    coeffs[n + basis.cutoff_n] = 1.0
    return MomentumState(basis, coeffs)


def quadrature_band(potential, k):
    """Fourier coefficient (1/2 pi) integral V(theta) e^{-i k theta} d theta
    by the trapezoid rule on 512 nodes."""
    grid = QuadratureGrid.make(512)
    return integrate_periodic(potential.value(grid.nodes) * np.exp(-1j * k * grid.nodes), grid) / TWO_PI


def checked_bands(ham):
    """``ham.bands``, each within 1e-10 of its quadrature Fourier coefficient."""
    for k, band in enumerate(ham.bands, start=1):
        assert abs(band - quadrature_band(ham.potential, k)) < 1e-10
    return ham.bands


def dense_hamiltonian(potential, basis):
    """Oracle matrix of P^2 + V: the whole dim x dim array filled band by
    band, float64 when the potential has no sine terms."""
    dim, real = basis.dimension, not any(potential.b)
    momenta = basis.momenta()
    matrix = np.diag((momenta * momenta + potential.a0).astype(float if real else complex))
    for k, band in enumerate(checked_bands(build_hamiltonian(potential, basis)), start=1):
        idx = np.arange(dim - k)
        matrix[idx + k, idx] += band
        matrix[idx, idx + k] += np.conj(band)
    return matrix


def dense_reference_trace(ham, initial, dt, steps):
    """Oracle propagation: complex eigh of the dense matrix, every mode,
    every state at once, and the energy through the dense H @ states."""
    matrix = dense_hamiltonian(ham.potential, ham.basis).astype(complex)
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
    basis = comparison_basis(model, p)
    state = coherent_state(spec, basis, p, q)
    return build_hamiltonian(potential, basis), state, 0.01, steps


def spread_case():
    # a random state loads every eigenmode far above the window tail
    basis = TwistedBasis(0.3, 1.0, 6)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    state = MomentumState(basis, coeffs / np.linalg.norm(coeffs))
    ham = build_hamiltonian(TrigPotential(a=(0.5, 0.1), b=(0.2, 0.0)), basis)
    return ham, state, 0.05, 200


SINE_TERMS = TrigPotential(a=(0.8, 0.2), b=(0.1, -0.3))


def edge_case():
    # r/hbar = 10 boosted to p/hbar = 34 on the lattice |n| <= 50: the
    # state's weight reaches the upper lattice edge (2e-11 on the last slot)
    spec = FiducialSpec(r=1.0, alpha=0.3, hbar=0.1)
    basis = TwistedBasis(spec.alpha, spec.hbar, 50)
    state = coherent_state(spec, basis, 3.4, -2.0)
    assert abs(state.coeffs[-1]) ** 2 > WINDOW_TAIL  # so the block ends at the edge
    return build_hamiltonian(SINE_TERMS, basis), state, 0.01, 300


ORACLE_CASES = {
    "real": lambda: coherent_case(TrigPotential(a=(0.8, 0.2)), 300),
    "complex": lambda: coherent_case(SINE_TERMS, 300),
    "all_modes": spread_case,
    "ragged_chunks": lambda: coherent_case(TrigPotential(a=(1.0,)), 2 * TIME_CHUNK + 37),
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


def chunked_reference_trace(ham, initial, dt, steps):
    """Oracle for the propagation on the first block: an exp for every mode
    at every sample time, and the energy as <psi| (H @ psi) with H applied
    through its diagonal and band pairs."""

    def window(weights):
        # all but the weakest entries whose summed weight is <= WINDOW_TAIL
        order = np.argsort(weights)
        return np.sort(order[np.searchsorted(np.cumsum(weights[order]), WINDOW_TAIL, side="right"):])

    psi, matrix = initial.coeffs, dense_hamiltonian(ham.potential, ham.basis)
    held = window(np.abs(psi) ** 2)
    margin = max(1, (held[-1] + 1 - held[0]) // MARGIN_DIVISOR)
    block = slice(max(held[0] - margin, 0), min(held[-1] + 1 + margin, ham.basis.dimension))
    energies, modes = np.linalg.eigh(matrix[block, block])
    amps = modes.conj().T @ psi[block]
    kept = window(np.abs(amps) ** 2)
    energies, modes, amps = energies[kept], modes[:, kept], amps[kept]
    bands = checked_bands(ham)
    times = dt * np.arange(steps + 1)
    out = {key: np.empty(steps + 1) for key in ("cos_q", "sin_q", "mean_p", "norm", "energy")}
    for start in range(0, steps + 1, TIME_CHUNK):
        chunk = slice(start, start + TIME_CHUNK)
        states = modes @ (np.exp(-1j * np.outer(energies, times[chunk]) / ham.basis.hbar) * amps[:, None])
        applied = np.diagonal(matrix)[block, None] * states
        for k, band in enumerate(bands, start=1):
            applied[k:] += band * states[:-k]
            applied[:-k] += np.conj(band) * states[k:]
        weights = np.abs(states) ** 2
        moment = np.sum(np.conj(states[1:]) * states[:-1], axis=0)
        out["cos_q"][chunk], out["sin_q"][chunk] = moment.real, moment.imag
        out["mean_p"][chunk] = ham.basis.momenta()[block] @ weights
        out["norm"][chunk] = weights.sum(axis=0)
        out["energy"][chunk] = np.sum(np.conj(states) * applied, axis=0).real
    return out, block.stop - block.start


CHUNK_ORACLE_CASES = {
    "real": lambda: coherent_case(TrigPotential(a=(0.8, 0.2)), 300),
    "complex": lambda: coherent_case(SINE_TERMS, 300),
    "bandwidth3": lambda: coherent_case(TrigPotential(a0=0.3, a=(0.8, -0.2, 0.1), b=(0.0, 0.1, -0.05)), 300),
    "free": lambda: coherent_case(TrigPotential(), 300),
    "ragged_chunks": lambda: coherent_case(TrigPotential(a=(1.0,)), 2 * TIME_CHUNK + 37),
    "backward": lambda: coherent_case(SINE_TERMS, 300)[:2] + (-0.01, 300),
}


@pytest.mark.parametrize("name", list(CHUNK_ORACLE_CASES))
def test_propagation_matches_chunked_oracle(name):
    # the phase table and the shifted sums reproduce per-sample phases and
    # the banded matvec to roundoff
    ham, state, dt, steps = CHUNK_ORACLE_CASES[name]()
    trace = evolve_quantum(ham, state, dt, steps)
    expected, slots = chunked_reference_trace(ham, state, dt, steps)
    assert trace.slots_kept == slots  # the first block passes, as in the oracle
    for key, values in expected.items():
        got = getattr(trace, key)
        assert np.all(np.abs(got - values) <= 1e-13 * np.maximum(1.0, np.abs(values))), key


def test_long_horizon_grows_the_block():
    # the same state over a short horizon settles on the first block
    ham, state, dt, steps = ORACLE_CASES["long_horizon"]()
    short = evolve_quantum(ham, state, dt, 300)
    long = evolve_quantum(ham, state, dt, steps)
    assert short.slots_kept < long.slots_kept < ham.basis.dimension
    assert max(short.truncation_bound, long.truncation_bound) <= 1e-12


class SpyStop(Exception):
    """Raised by an eigh spy before a solve the test does not expect."""


def spied_compare(monkeypatch, tmp_path, settings, solves=math.inf, largest=math.inf):
    """Run ``compare`` with ``settings`` under an eigh spy that records each
    block size and raises SpyStop before a solve past the ``solves``-th or
    over ``largest`` slots.  Returns (exit code, or None when the spy
    stopped the run; the sizes solved; the quantum traces)."""
    solved, traces = [], []
    eigh, evolve = np.linalg.eigh, qevolve.evolve_quantum

    def spy_eigh(matrix):
        if len(solved) == solves or matrix.shape[0] > largest:
            raise SpyStop
        solved.append(matrix.shape[0])
        return eigh(matrix)

    def spy_evolve(*args):
        traces.append(evolve(*args))
        return traces[-1]

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(qevolve, "evolve_quantum", spy_evolve)
    args = ["compare", "--set", f"output.dir = {tmp_path}"]
    for item in settings:
        args += ["--set", item]
    try:
        code = main(args)
    except SpyStop:
        code = None
    return code, solved, traces


R200 = ["model.r = 2.5", "model.hbar = 0.0125"]


def test_block_grows_only_on_the_leaking_side(tmp_path, monkeypatch):
    # compare at r/hbar = 200 from p0 = 1: the first block of 312 slots leaks
    # about 2e-5 through its lower edge and 2e-20 through its upper one, so
    # only the lower margin doubles (growing both solved 312, 416 and 624)
    code, solved, traces = spied_compare(monkeypatch, tmp_path, [*R200, "model.potential.a = 1.0"])
    assert code == 0
    assert solved[0] == 312 and len(solved) > 1 and max(solved) < 624
    assert traces[0].slots_kept == solved[-1]
    assert traces[0].truncation_bound <= 1e-12


def test_localized_state_stops_short_of_the_whole_lattice(tmp_path, monkeypatch):
    # the momentum sweep of this state reaches past the first margin: the
    # low-edge leak reads 10.2 and 9.76 at 312 and 364 slots, then 1.3e-16
    # at 468.  A slow fall is no sign of delocalized modes, so the block
    # keeps doubling instead of jumping to the 3461-slot lattice
    settings = [*R200, "model.potential.a = 0.5, 0.5", "model.alpha = 0.5", "run.q0 = 2.0",
                "run.p0 = 1.5", "run.dt = 0.002", "run.total_time = 4.6"]
    code, solved, traces = spied_compare(monkeypatch, tmp_path, settings, largest=1500)
    assert code == 0
    assert solved == [312, 364, 468]
    assert traces[0].truncation_bound <= 1e-12


@pytest.mark.parametrize("hbar, blocks", [(0.05, [159, 211, 315, 523, 859]),
                                          (0.0125, [312, 416, 624, 1040])])
def test_delocalized_modes_grow_the_block_by_doubling(tmp_path, monkeypatch, hbar, blocks):
    # a 1e300 coupling delocalizes the modes, so each growth barely moves the
    # edge leak, and both margins double until the block is the whole
    # lattice: 859 slots at hbar = 0.05.  At 0.0125 the spy stops before the
    # 1872-slot solve, as the solves up to the 3379-slot lattice take seconds
    settings = ["model.r = 2.5", f"model.hbar = {hbar}", "model.potential.a = 1e300"]
    code, solved, traces = spied_compare(monkeypatch, tmp_path, settings, solves=len(blocks))
    assert solved == blocks
    if hbar == 0.05:
        assert code == 0 and traces[0].slots_kept == 859
    else:
        assert code is None


def test_block_near_the_lattice_edge_takes_the_edge(tmp_path, monkeypatch):
    # two 1e300 harmonics (bandwidth m = 2) on a 161-slot lattice: the fourth
    # block would stop one slot short of the edge, and a solve of the whole
    # lattice would follow it (63, 83, 120, 160, 161); it takes that slot
    settings = ["model.r = 0.3", "model.hbar = 0.05", "model.alpha = 0.3",
                "model.potential.a = 1e300, 1e300", "run.q0 = 1.0", "run.p0 = 1.1"]
    code, solved, traces = spied_compare(monkeypatch, tmp_path, settings)
    assert code == 0 and solved == [63, 83, 120, 161]
    assert traces[0].slots_kept == 161


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
    ham = build_hamiltonian(TrigPotential(a=(1.0,)), basis)
    state = coherent_state(spec, basis, 0.5, 1.0)
    tracemalloc.start()
    try:
        trace = evolve_quantum(ham, state, 0.01, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dimension == 201 and trace.times.size == 20001
    assert peak < 16 * 2**20


def test_quantum_path_memory_stays_banded():
    # compare's coherent state at r/hbar = 200: the dense 3379 x 3379
    # float64 matrix alone would take 87 MiB; the bands and the solved
    # blocks of at most a few hundred slots take a few MiB
    spec = FiducialSpec(r=2.5, alpha=0.0, hbar=0.0125)
    model = EnhancedHamiltonian.build(TrigPotential(a=(1.0,)), spec)
    basis = comparison_basis(model, 1.0)
    state = coherent_state(spec, basis, 1.0, 0.0)
    tracemalloc.start()
    try:
        trace = evolve_quantum(build_hamiltonian(model.potential, basis), state, 0.01, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dimension == 3379 and trace.slots_kept < 3379
    assert peak < 16 * 2**20


BLOCK_POTENTIALS = {
    "real": TrigPotential(a0=-0.4, a=(0.9, 0.1, -0.7)),
    "complex": TrigPotential(a0=0.3, a=(0.8, -0.2, 0.1), b=(0.0, 0.1, -0.05)),
    "free": TrigPotential(),
}
# (rows, cols) on the 13-slot lattice below; stops past 13 are clipped
BLOCK_SLICES = {
    "inside": (slice(4, 9), slice(4, 9)),
    "off_diagonal": (slice(1, 4), slice(4, 9)),
    "uncoupled": (slice(0, 3), slice(9, 13)),
    "lower_edge": (slice(0, 3), slice(0, 6)),
    "upper_edge": (slice(10, 13), slice(5, 13)),
    "past_dim": (slice(13, 16), slice(0, 13)),
    "straddling_dim": (slice(11, 20), slice(9, 40)),
    "whole": (slice(None), slice(None)),
}


@pytest.mark.parametrize("potential", list(BLOCK_POTENTIALS))
@pytest.mark.parametrize("where", list(BLOCK_SLICES))
def test_block_matches_dense_oracle(potential, where):
    basis = TwistedBasis(0.3, 0.7, 6)
    ham = build_hamiltonian(BLOCK_POTENTIALS[potential], basis)
    dense = dense_hamiltonian(ham.potential, basis)
    rows, cols = BLOCK_SLICES[where]
    for got, expected in ((ham.matrix, dense), (ham.block(rows, cols), dense[rows, cols])):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bit for bit


def test_free_hamiltonian_is_diagonal():
    basis = TwistedBasis(0.3, 0.5, 6)
    ham = build_hamiltonian(TrigPotential(), basis)
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
    basis = TwistedBasis(0.2, 1.0, 8)
    ham = build_hamiltonian(potential, basis)
    kinetic = np.diag(basis.momenta() ** 2)
    checked_bands(ham)
    for k in range(-4, 5):
        quad = quadrature_band(potential, k)
        # <m|V|n> = V_{m-n} on the band m - n = k
        assert np.max(np.abs(np.diag(ham.matrix - kinetic, -k) - quad)) < 1e-10
    assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) == 0.0


def test_cutoff_must_exceed_degree():
    with pytest.raises(ValueError):
        build_hamiltonian(TrigPotential(a=(1.0, 1.0)), TwistedBasis(0.0, 1.0, 2))


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.77])
def test_free_spectrum_exact(alpha):
    basis = TwistedBasis(alpha, 1.0, 32)
    ham = build_hamiltonian(TrigPotential(), basis)
    eigenvalues = np.linalg.eigvalsh(ham.matrix)
    exact = np.sort(basis.momenta() ** 2)
    assert np.max(np.abs(eigenvalues - exact)) <= 1e-10


@pytest.mark.parametrize("hbar", [1.0, 0.25, 0.05])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_pendulum_spectrum_is_mathieu(alpha, hbar):
    # with theta = 2x, -hbar^2 psi'' + cos theta psi = E psi is Mathieu's
    # equation with a = 4E/hbar^2 and q = 2/hbar^2; a periodic state has
    # period pi in x (even orders), an antiperiodic one 2 pi (odd orders)
    from scipy.special import mathieu_a, mathieu_b

    basis = TwistedBasis(alpha, hbar, 200)
    eigenvalues = np.linalg.eigvalsh(build_hamiltonian(TrigPotential(a=(1.0,)), basis).matrix)[:10]
    q, first = 2.0 / hbar**2, int(2 * alpha)
    orders = np.arange(first, first + 20, 2)
    exact = 0.25 * hbar**2 * np.sort(np.concatenate([mathieu_a(orders, q),
                                                     mathieu_b(orders[orders > 0], q)]))[:10]
    assert np.all(np.abs(eigenvalues - exact) <= 1e-9 * np.maximum(1.0, np.abs(exact)))


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
    ham = build_hamiltonian(TrigPotential(), basis)
    trace = evolve_quantum(ham, basis_state(basis, 3), 0.05, 40)
    assert np.ptp(trace.mean_p) < 1e-12
    assert trace.mean_p[0] == pytest.approx(3.25)
    assert np.ptp(trace.cos_q) < 1e-12 and np.ptp(trace.sin_q) < 1e-12
    assert np.max(np.abs(trace.norm - 1.0)) < 1e-10


def test_free_coherent_momentum_and_dispersion():
    spec = FiducialSpec(r=8.0, alpha=0.25)
    basis = TwistedBasis(0.25, 1.0, default_cutoff(8.0) + 3)
    p = 2.3
    state = coherent_state(spec, basis, p, 0.0)
    ham = build_hamiltonian(TrigPotential(), basis)
    trace = evolve_quantum(ham, state, 0.01, 400)
    assert np.max(np.abs(trace.mean_p - (p + 0.25))) < 1e-9
    assert np.all(trace.cos_q**2 + trace.sin_q**2 <= 1.0 + 1e-12)
    # the phase of <e^{iQ}> advances at the classical rate while the
    # modulus decays (dispersion)
    angles = np.unwrap(np.arctan2(trace.sin_q, trace.cos_q))
    early = slice(0, 40)
    rate = np.polyfit(trace.times[early], angles[early], 1)[0]
    assert rate == pytest.approx(2.0 * (p + 0.25), rel=1e-3)
    coherence = np.hypot(trace.cos_q, trace.sin_q)
    assert coherence[-1] < 0.5 * coherence[0]


def test_unitarity_and_energy_conservation():
    spec = FiducialSpec(r=5.0, alpha=0.1)
    basis = TwistedBasis(0.1, 1.0, default_cutoff(5.0, 2) + 2)
    ham = build_hamiltonian(TrigPotential(a=(0.8, 0.2), b=(0.1, -0.3)), basis)
    state = coherent_state(spec, basis, 1.2, 0.4)
    trace = evolve_quantum(ham, state, 0.02, 500)
    assert np.max(np.abs(trace.norm - 1.0)) < 1e-10
    assert np.max(np.abs(trace.energy - trace.energy[0])) < 1e-9


def test_initial_state_must_be_normalized():
    basis = TwistedBasis(0.0, 1.0, 4)
    ham = build_hamiltonian(TrigPotential(), basis)
    bad = MomentumState(basis, np.full(basis.dimension, 0.5 + 0j))
    with pytest.raises(ValueError):
        evolve_quantum(ham, bad, 0.1, 2)


@pytest.mark.parametrize(
    "other",
    [TwistedBasis(0.5, 1.0, 4), TwistedBasis(0.0, 0.5, 4), TwistedBasis(0.0, 1.0, 5)],
    ids=["alpha", "hbar", "cutoff_n"],
)
def test_basis_mismatch_rejected(other):
    ham = build_hamiltonian(TrigPotential(), TwistedBasis(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        evolve_quantum(ham, basis_state(other, 0), 0.1, 2)


def test_equal_basis_is_accepted():
    # a separately built basis with equal fields is the same lattice
    ham = build_hamiltonian(TrigPotential(), TwistedBasis(0.3, 1.0, 4))
    trace = evolve_quantum(ham, basis_state(TwistedBasis(0.3, 1.0, 4), 0), 0.1, 2)
    assert trace.mean_p[0] == pytest.approx(0.3)


def test_ehrenfest_rate_at_start():
    # d<P>/dt at t = 0 equals -<dV/dq>, estimated by a symmetric difference
    spec = FiducialSpec(r=6.0, alpha=0.25)
    potential = TrigPotential(a=(0.8, -0.3), b=(0.2, 0.1))
    basis = TwistedBasis(0.25, 1.0, default_cutoff(6.0, 2) + 3)
    state = coherent_state(spec, basis, 1.3, 0.7)
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
    model = EnhancedHamiltonian.build(TrigPotential(), spec)
    report = compare_restricted(model, 2.3, -0.5, dt=0.01, steps=500)
    assert np.max(report.momentum_deviation) < 1e-9


def revival_compare(ratio, alpha, p0, potential=TrigPotential()):
    """(report, roundoff) of ``compare`` from (p0, q0 = 0.7) at r = 2.5 over one
    revival time T_rev = 2 pi / hbar in 20,000 steps, so samples 5000, 10000
    and 20000 sit at T_rev / 4, T_rev / 2 and T_rev.  ``roundoff`` is
    eps ||H|| T_rev / hbar, the growth evolve_quantum names, with ||H|| the
    largest P^2 on the lattice (the free Hamiltonian's norm)."""
    hbar = 2.5 / ratio
    model = EnhancedHamiltonian.build(potential, FiducialSpec(r=2.5, alpha=alpha, hbar=hbar))
    revival = 2.0 * math.pi / hbar
    report = compare_restricted(model, p0, 0.7, revival / 20000, 20000)
    norm = float(np.max(comparison_basis(model, p0).momenta() ** 2))
    return report, np.finfo(float).eps * norm * revival / hbar


@pytest.mark.parametrize("ratio", [10.0, 50.0])
def test_free_circle_revives(ratio):
    # P = hbar (n + alpha), so at T_rev slot n turns by 2 pi (n + alpha)^2: an
    # integer p0/hbar revives at q0 + 4 pi alpha, where the enhanced flow lands
    # too, sits at its antipode at T_rev / 2 and has dispersed at T_rev / 4
    quarter, half, full = 5000, 10000, 20000
    report, roundoff = revival_compare(ratio, 0.25, 1.0)
    coherence, phase = report.coherence, report.phase_deviation
    assert np.max(np.abs(coherence[[half, full]] - coherence[0])) <= 1e-12
    assert phase[full] <= 1e-9 and phase[half] >= 1.99
    assert coherence[quarter] <= 1e-10
    moment = report.quantum.cos_q + 1j * report.quantum.sin_q
    spec = FiducialSpec(r=2.5, alpha=0.25, hbar=2.5 / ratio)
    assert np.max(np.abs(moment - free_circle_moment(spec, 0.7, 1.0, report.quantum.times))) <= roundoff
    # a fractional p0/hbar boosts through the run 1 / (n - k + p/hbar); every
    # lattice state picks up e^{4 pi i alpha} at T_rev and -e^{2 pi i alpha} at
    # T_rev / 2, and alpha = 0.1 (unlike 0.25) tells the phase's sign apart
    report, roundoff = revival_compare(ratio, 0.1, 0.37)
    moment = report.quantum.cos_q + 1j * report.quantum.sin_q
    assert abs(moment[full] - np.exp(4j * math.pi * 0.1) * moment[0]) <= roundoff
    assert abs(moment[half] + np.exp(2j * math.pi * 0.1) * moment[0]) <= roundoff


def test_compare_runs_the_classical_flow_on_the_same_steps():
    model = EnhancedHamiltonian.build(
        TrigPotential(a=(1.0, 0.3), b=(0.2,)), FiducialSpec(r=0.5, alpha=0.25, hbar=0.05)
    )
    report = compare_restricted(model, 1.0, 0.7, dt=0.002, steps=200)
    # compare starts every flow from the chart angle, which may move 0.7 by an ulp
    classical = evolve("classical", model, 1.0, float(wrap_angle(0.7)), 0.002, 200)
    for field in ("times", "q", "q_unwrapped", "p", "energies"):
        assert np.array_equal(getattr(report.classical, field), getattr(classical, field)), field
    assert np.array_equal(report.classical.times, report.quantum.times)


def test_compare_sizes_its_own_lattice():
    parameters = list(inspect.signature(compare_restricted).parameters)
    assert parameters == ["model", "p0", "q0", "dt", "steps"]


def test_compare_pendulum_localized_vs_spread():
    hbar = 0.05
    start = (0.0, math.pi - 0.4)
    sharp = EnhancedHamiltonian.build(
        TrigPotential(a=(1.0,)), FiducialSpec(r=50 * hbar, alpha=0.25, hbar=hbar)
    )
    report = compare_restricted(sharp, *start, dt=0.002, steps=2300)
    # one full small-oscillation period is ~4.5 time units; regression
    # bound 0.05 frozen per the acceptance contract (measured 0.013)
    assert float(np.max(report.phase_deviation)) < 0.05
    assert report.ehrenfest_window == pytest.approx(report.quantum.times[-1])

    spread = EnhancedHamiltonian.build(
        TrigPotential(a=(1.0,)), FiducialSpec(r=2 * hbar, alpha=0.25, hbar=hbar)
    )
    control = compare_restricted(spread, *start, dt=0.002, steps=2300)
    assert float(np.max(control.phase_deviation)) > 2.0 * float(np.max(report.phase_deviation))


def test_comparison_basis_covers_boost():
    spec = FiducialSpec(r=2.0, alpha=0.0, hbar=0.5)
    model = EnhancedHamiltonian.build(TrigPotential(a=(1.0,)), spec)
    wide = comparison_basis(model, 6.0)
    narrow = comparison_basis(model, 0.0)
    assert wide.cutoff_n - narrow.cutoff_n == 12
