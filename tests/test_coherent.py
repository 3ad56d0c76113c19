import math
import tracemalloc

import numpy as np
import pytest

from circleq.specfun import gauss_legendre
from circleq.hilbert import ResolutionError, TwistedBasis, wrap_angle
from circleq.fiducial import FiducialSpec, default_basis, evaluate, momentum_coefficients
from circleq import coherent
from circleq.cli import RunConfig
from circleq.coherent import (
    _boost_blocks,
    coherent_state,
    legendre_node_count,
    verify_unity,
)

from oracles import QuadratureGrid, closed_form_unity_diagonal, whole_lattice_boost

SQRT_2PI = math.sqrt(2 * math.pi)


def quadrature_coefficients(spec, basis, p, q, nodes=4096):
    """Independent oracle: seam-averaged trapezoid of the defining projection.

    The integrand jumps at theta = +/-pi for non-integer p/hbar; averaging
    the chart values at the seam leaves an O(h^2) error proportional to the
    jump of the derivative, itself O(e^{-2r/hbar}).
    """
    grid = QuadratureGrid.make(nodes)
    out = np.empty(basis.dimension, dtype=complex)
    for i, n in enumerate(basis.n_values()):
        k = n + basis.alpha

        def integrand(theta):
            return np.exp(-1j * k * theta + 1j * p * theta / spec.hbar) * evaluate(spec, theta)

        values = integrand(grid.nodes)
        values[0] = 0.5 * (integrand(-math.pi) + integrand(math.pi))
        out[i] = grid.weight * values.sum() / SQRT_2PI
    return np.exp(-1j * (basis.n_values() + basis.alpha) * q) * out


def dense_boost(spec, basis, shifts):
    """Literal boost table f[i, k] = sum_n c_n sinc(n - k + shifts[i]) from a
    full (P, S, D) sinc kernel over the fiducial support."""
    support = default_basis(spec)
    c = momentum_coefficients(spec, support)
    kernel = np.sinc(
        support.n_values()[None, None, :]
        - basis.n_values()[None, :, None]
        + np.asarray(shifts)[:, None, None]
    )
    return kernel @ c


def boost_table(spec, shifts, basis):
    """The whole (P, S) table from the production column blocks."""
    return np.concatenate(list(_boost_blocks(spec, np.asarray(shifts, dtype=float), basis)), axis=1)


def literal_unity_reference(spec, basis, p_cutoff, p_nodes=None, full_2d=False, q_nodes=None):
    """Oracle for verify_unity on ``p_nodes`` momentum nodes (by default
    verify_unity's count): the dense boost tensor and, with ``full_2d``,
    the literal double sum over momentum nodes and angle nodes, one state
    d_n(p_i, q_j) at a time, which checks that the angle rule's aliasing
    vector is 2 pi delta_d0.  Returns (diagonal entries, off-diagonal defect)."""
    x, w = np.polynomial.legendre.leggauss(p_nodes or legendre_node_count(p_cutoff, spec.hbar))
    p_values, p_weights = p_cutoff * x, p_cutoff * w
    f = dense_boost(spec, basis, p_values / spec.hbar)
    if not full_2d:
        return (p_weights / spec.hbar) @ (f * f), 0.0
    slots = basis.n_values()
    if q_nodes is None:
        q_nodes = max(64, 4 * basis.cutoff_n + 4)
    q_values = -math.pi + 2 * math.pi * np.arange(q_nodes) / q_nodes
    rot = np.exp(-1j * np.outer(q_values, slots + basis.alpha))  # (q, dim)
    matrix = np.zeros((len(slots), len(slots)), dtype=complex)
    q_weight = 2 * math.pi / q_nodes
    for i in range(p_values.size):
        d = rot * f[i]  # states d_n(p_i, q_j) for every q_j
        matrix += (p_weights[i] * q_weight) * (d.conj().T @ d)
    matrix /= 2 * math.pi * spec.hbar
    off = matrix - np.diag(np.diag(matrix))
    return np.diag(matrix).real, float(np.max(np.abs(off)))


def unit(coeffs):
    """``coeffs`` as complex, divided by their norm as coherent_state divides."""
    d = np.asarray(coeffs, dtype=complex)
    return d / math.sqrt(np.vdot(d, d).real)


def test_angle_period_is_the_twist_phase():
    # q is taken as given: a full turn multiplies every slot by e^{-2 pi i alpha}
    spec = FiducialSpec(r=6.0, alpha=0.3, hbar=0.5)
    basis = default_basis(spec)
    for p, q in [(1.0, 1.5 * math.pi), (-2.0, math.pi), (0.37, -9.5)]:
        turned = coherent_state(spec, basis, p, q + 2.0 * math.pi).coeffs
        state = coherent_state(spec, basis, p, q).coeffs
        assert np.max(np.abs(turned - np.exp(-2j * math.pi * spec.alpha) * state)) < 1e-13
        # so the chart angle gives the state up to that phase once per turn
        turns = (q - float(wrap_angle(q))) / (2.0 * math.pi)
        chart = coherent_state(spec, basis, p, float(wrap_angle(q))).coeffs
        assert np.max(np.abs(state - np.exp(-2j * math.pi * spec.alpha * turns) * chart)) < 1e-13


def test_zero_label_reproduces_fiducial():
    # bit for bit: the kernel row of an integer shift is a unit vector, where
    # np.sinc(3.0) = 3.9e-17 left a roundoff trail
    spec = FiducialSpec(r=3.0, alpha=0.3)
    basis = default_basis(spec)
    state = coherent_state(spec, basis, 0.0, 0.0)
    assert np.array_equal(state.coeffs, unit(momentum_coefficients(spec, basis)))


def test_integer_boost_is_lattice_shift():
    spec = FiducialSpec(r=4.0, alpha=0.25, hbar=0.5)
    basis = default_basis(spec)
    boosted = coherent_state(spec, basis, 3 * spec.hbar, 0.0)
    fiducial = momentum_coefficients(spec, basis)
    # c'_n = c_{n-3}; the three slots pushed past the upper edge hold < 1e-10
    assert np.vdot(fiducial[-3:], fiducial[-3:]).real < 1e-10
    assert np.max(np.abs(boosted.coeffs[3:] - fiducial[:-3])) < 1e-10
    assert np.max(np.abs(boosted.coeffs[:3])) < 1e-10


def test_coefficients_match_quadrature_oracle():
    spec = FiducialSpec(r=8.0, alpha=0.3)
    basis = TwistedBasis(0.3, 1.0, 24)
    state = coherent_state(spec, basis, 1.7, 2.1)
    oracle = quadrature_coefficients(spec, basis, 1.7, 2.1)
    assert np.max(np.abs(state.coeffs - oracle)) < 1e-9


def test_normalization_random_labels():
    spec = FiducialSpec(r=6.0, alpha=0.15)
    basis = default_basis(spec)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, q = rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)
        state = coherent_state(spec, basis, p, q)
        # the boost before the division leaks little, by the dense sinc kernel
        boost = dense_boost(spec, basis, [p / spec.hbar])[0]
        assert abs(boost @ boost - 1.0) < 1e-9
        assert abs(state.norm_sq() - 1.0) < 1e-9


def test_phase_covariance_exact():
    spec = FiducialSpec(r=5.0, alpha=0.4)
    basis = default_basis(spec)
    p = 1.3
    at_zero = coherent_state(spec, basis, p, 0.0)
    q = -2.2
    rotated = coherent_state(spec, basis, p, q)
    phases = np.exp(-1j * (basis.n_values() + basis.alpha) * q)
    assert np.max(np.abs(rotated.coeffs - phases * at_zero.coeffs)) < 1e-15


def test_resolution_diagnostic_fires():
    # a lattice too narrow for the boost leaks weight past the edge
    spec = FiducialSpec(r=6.0, alpha=0.0)
    narrow = TwistedBasis(0.0, 1.0, 10)
    with pytest.raises(ResolutionError):
        coherent_state(spec, narrow, 25.0, 0.0)
    # weak concentration: the non-integer boost tail itself overflows 1e-8
    spec1 = FiducialSpec(r=1.0, alpha=0.0)
    with pytest.raises(ResolutionError):
        coherent_state(spec1, TwistedBasis(0.0, 1.0, 16), 0.3, 0.0)


def test_overlap_normalization_and_symmetry():
    spec = FiducialSpec(r=6.0, alpha=0.2)
    basis = default_basis(spec)
    state_a = coherent_state(spec, basis, 0.8, 0.4)
    state_b = coherent_state(spec, basis, -1.1, -2.0)
    assert abs(np.vdot(state_a.coeffs, state_a.coeffs) - 1.0) < 1e-9
    ab = np.vdot(state_a.coeffs, state_b.coeffs)
    ba = np.vdot(state_b.coeffs, state_a.coeffs)
    assert ab == pytest.approx(np.conj(ba), abs=1e-15)
    assert abs(ab) <= 1.0 + 1e-12


def test_overlap_decays_with_separation():
    spec = FiducialSpec(r=2.0, alpha=0.0)
    basis = default_basis(spec)
    qs = np.linspace(0.1, math.pi / 2, 8)
    at_origin = coherent_state(spec, basis, 0.0, 0.0)
    states = [coherent_state(spec, basis, 0.0, q) for q in qs]
    mags = [abs(np.vdot(at_origin.coeffs, state.coeffs)) for state in states]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_unity_preconditions():
    spec = FiducialSpec(r=1.0)
    basis = TwistedBasis(0.0, 1.0, 4)
    for cutoffs in ([0.0], [5.0, -1.0], []):
        with pytest.raises(ValueError):
            verify_unity(spec, basis, cutoffs)


def test_unity_ladder_monotone_and_interior_defect():
    spec = FiducialSpec(r=1.0, alpha=0.25)
    basis = TwistedBasis(0.25, 1.0, 32)
    scale = math.sqrt(spec.hbar * max(spec.r, spec.hbar))
    interior = np.abs(basis.n_values()) <= max(spec.localization, 1.0)
    diagonals = verify_unity(spec, basis, [factor * scale for factor in (5.0, 10.0, 20.0, 40.0)])
    assert isinstance(diagonals, np.ndarray) and diagonals.dtype == np.float64
    assert diagonals.shape == (4, basis.dimension)
    defects = np.max(np.abs(diagonals[:, interior] - 1.0), axis=1)
    assert all(a > b for a, b in zip(defects, defects[1:]))
    assert defects[-1] <= 1e-3


def test_unity_uniform_state_sinc_mass_oracle():
    # r = 0 reduces slot n to the sinc-squared spectral mass inside the window
    from scipy.integrate import quad

    spec = FiducialSpec(r=0.0, alpha=0.0)
    basis = TwistedBasis(0.0, 1.0, 4)
    cutoff = 12.0
    [diag] = verify_unity(spec, basis, [cutoff])
    for n in (0, 2):
        entry = float(diag[basis.n_values() == n][0])
        mass, _ = quad(lambda k: np.sinc(k - n) ** 2, -cutoff, cutoff, limit=400)
        assert entry == pytest.approx(mass, abs=1e-8)


def test_unity_automatic_node_count_is_resolved():
    # doubling the momentum rule must not move the answer
    spec = FiducialSpec(r=2.0, alpha=0.1)
    basis = TwistedBasis(0.1, 1.0, 16)
    [diag] = verify_unity(spec, basis, [30.0])
    nodes = legendre_node_count(30.0, spec.hbar)
    fine, _ = literal_unity_reference(spec, basis, p_cutoff=30.0, p_nodes=2 * nodes)
    assert np.max(np.abs(diag - fine)) < 1e-10


@pytest.mark.parametrize("full_2d", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 0.25])
@pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
def test_unity_matches_literal_reference(r, alpha, full_2d):
    # the one momentum sweep against either oracle: the dense boost tensor,
    # or the literal double sum, whose off-diagonal part must vanish
    spec = FiducialSpec(r=r, alpha=alpha)
    basis = TwistedBasis(alpha, 1.0, 12)
    [row] = verify_unity(spec, basis, [20.0])
    diag, offdiag = literal_unity_reference(spec, basis, p_cutoff=20.0, full_2d=full_2d)
    assert np.max(np.abs(row - diag)) < 1e-13
    assert offdiag <= 1e-10


def test_unity_sweep_across_column_blocks(monkeypatch):
    # 601 slots take two column blocks; an even (102) and an odd (155) rule
    # share the sweep, and a budget of 129 half-rule nodes splits it in two
    spec = FiducialSpec(r=2.0, alpha=0.25)
    basis = TwistedBasis(0.25, 1.0, 300)
    cutoffs = [20.0, 35.0, 20.0]
    rows = verify_unity(spec, basis, cutoffs)
    assert [legendre_node_count(cutoff, spec.hbar) for cutoff in cutoffs] == [102, 155, 102]
    for cutoff, row in zip(cutoffs, rows, strict=True):
        diag, _ = literal_unity_reference(spec, basis, cutoff)
        assert np.max(np.abs(row - diag)) < 1e-13
    monkeypatch.setattr(coherent, "_SWEEP_NODES", 51 + 78)
    sweeps = []
    monkeypatch.setattr(coherent, "gauss_legendre", lambda counts: sweeps.append(counts) or gauss_legendre(counts))
    assert np.max(np.abs(verify_unity(spec, basis, cutoffs) - rows)) <= 1e-15
    assert sweeps == [(102, 155), (102,)]


def unity_config(*settings):
    return RunConfig.load("unity", overrides=(*settings, "model.alpha = 0.25"))


@pytest.mark.parametrize("settings", [
    ("model.r = 10",),
    ("model.r = 1", "run.p_cutoff_factors = 40"),  # a window past the 33-slot lattice
    ("model.r = 2.5", "model.hbar = 0.05", "run.p_cutoff_factors = 5, 40"),
    ("model.r = 0",),
], ids=["r10", "r1-past-lattice", "r50", "r0"])
def test_unity_sweep_matches_the_closed_form(settings):
    # the momentum integral by sine and cosine integrals, with no nodes, on
    # the command's own lattice and cutoffs
    cfg = unity_config(*settings)
    rows = verify_unity(cfg.spec, cfg.basis, cfg.p_cutoffs)
    for cutoff, row in zip(cfg.p_cutoffs, rows, strict=True):
        diag = closed_form_unity_diagonal(cfg.spec, cfg.basis, cutoff)
        assert np.max(np.abs(row - diag)) < 1e-13


@pytest.mark.parametrize("r, factor, deficit", [(10.0, 40.0, 76.0), (1.0, 20.0, 7.0), (1.0, 40.0, 47.0)])
def test_closed_form_trace_deficit(r, factor, deficit):
    # 2 L - sum_k diag_k = int_{-L}^{L} (1 - sum_k f_k^2) dx: the boost weight
    # the window leaks off the lattice, to two significant digits
    cfg = unity_config(f"model.r = {r}", f"run.p_cutoff_factors = {factor}")
    [cutoff] = cfg.p_cutoffs
    diag = closed_form_unity_diagonal(cfg.spec, cfg.basis, cutoff)
    assert float(f"{2.0 * cutoff / cfg.spec.hbar - diag.sum():.2g}") == deficit


def test_boost_table_matches_dense_sinc_kernel():
    # at r/hbar = 50 the 817 slots take two column blocks, so rows cross a seam
    for r, hbar in [(6.0, 0.5), (2.5, 0.05)]:
        spec = FiducialSpec(r=r, alpha=0.3, hbar=hbar)
        basis = default_basis(spec)
        edge = basis.cutoff_n
        c = momentum_coefficients(spec, basis)
        c[c < np.finfo(float).tiny] = 0.0  # the boost keeps only normal coefficients
        whole = [0.0, 3.0, -3.0, edge, -edge]
        near = [m + d for m in (0.0, 3.0, -edge) for d in (1e-12, -1e-12)]
        half = [0.5, -0.5, 3.5, -edge - 0.5]
        nodes = 12.0 * gauss_legendre([65])[0][0]  # odd P: x = 0 among them
        shifts = np.array([*whole, *near, *half, *nodes])
        table = boost_table(spec, shifts, basis)
        dense = np.vstack([dense_boost(spec, basis, [shift]) for shift in shifts])  # a row at a time
        assert np.max(np.abs(table - dense)) < 1e-14
        # the mirror the unity sweep relies on: f_k(-p) = f_{-k}(p)
        assert np.max(np.abs(boost_table(spec, -shifts, basis) - table[:, ::-1])) <= 1e-15
        # an integer shift m moves c by m slots exactly: f_k = c_{k - m}
        for row, m in zip(table, whole):
            m = int(m)
            expected = np.zeros_like(c)
            expected[max(m, 0): c.size + min(m, 0)] = c[max(-m, 0): c.size - max(m, 0)]
            assert np.array_equal(row, expected)


def test_single_row_boost_is_the_whole_lattice_product_bit_for_bit():
    # one row sums in lag order over the uncopied view, so splitting the 817
    # slots into column blocks moves no bit of a coherent state
    spec = FiducialSpec(r=2.5, alpha=0.3, hbar=0.05)
    basis = default_basis(spec)
    for shift in (0.37 / spec.hbar, -12.25, 7.0, -basis.cutoff_n - 0.5, 1e-12):
        row = np.concatenate([f[0] for f in _boost_blocks(spec, np.array([shift]), basis)])
        assert np.array_equal(row, whole_lattice_boost(spec, shift, basis))


def test_coherent_state_matches_dense_sinc_kernel():
    # at r/hbar = 50 (817 slots) a fractional p/hbar and ones 1e-12 either side
    # of an integer take the run 1 / (n - k + p/hbar)
    readme = FiducialSpec(r=2.5, alpha=0.3, hbar=0.05)
    cases = [
        (FiducialSpec(r=6.0, alpha=0.3, hbar=0.5), [(0.0, 0.0), (1.5, 0.7), (-2.3, -2.9), (0.37, 3.0)]),
        (readme, [(0.37, 1.1), *(((3.0 + d) * readme.hbar, -0.4) for d in (1e-12, -1e-12))]),
    ]
    for spec, labels in cases:
        basis = default_basis(spec)
        for p, q in labels:
            state = coherent_state(spec, basis, p, q)
            phases = np.exp(-1j * (basis.n_values() + basis.alpha) * q)
            dense = phases * dense_boost(spec, basis, [p / spec.hbar])[0]
            assert np.max(np.abs(state.coeffs - dense)) < 1e-14
    # p/hbar = +/-3 exactly (0.15 / 0.05 is not 3) takes the unit run: the
    # normal coefficients shifted by 3 slots and normalized, bit for bit
    spec = FiducialSpec(r=12.5, alpha=0.3, hbar=0.25)
    basis = default_basis(spec)
    c = momentum_coefficients(spec, basis)
    c[c < np.finfo(float).tiny] = 0.0
    for p, m in [(0.75, 3), (-0.75, -3)]:
        assert p / spec.hbar == m
        expected = np.zeros_like(c)
        expected[max(m, 0): c.size + min(m, 0)] = c[max(-m, 0): c.size - max(m, 0)]
        assert np.array_equal(coherent_state(spec, basis, p, 0.0).coeffs, unit(expected))


def test_unity_memory_bounded():
    # a (P, D, S) kernel here is 475 x 177 x 179 doubles, about 120 MB
    spec = FiducialSpec(r=10.0, alpha=0.25)
    basis = TwistedBasis(0.25, 1.0, 89)
    tracemalloc.start()
    try:
        verify_unity(spec, basis, [40.0 * math.sqrt(10.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert legendre_node_count(40.0 * math.sqrt(10.0), spec.hbar) == 475
    assert peak < 16 * 2**20
