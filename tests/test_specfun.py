import math

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

import circleq.specfun as specfun
from circleq.cli import main
from circleq.specfun import bessel_i_scaled_sequence, gauss_legendre

from oracles import QuadratureGrid, gauss_legendre_alone, integrate_periodic, miller_indexed

# sum_k (1/4)^k / (k!)^2 with 30+ terms, frozen as a regression constant
I0_AT_1 = 1.2660658777520082
# same series at z = 2
I0_AT_2 = 2.279585302336067
# quadrature oracle: int cos(t) e^{2 cos t} dt / int e^{2 cos t} dt, M = 4096
I1_OVER_I0_AT_2 = 0.6977746579640081


def ratio(order, z):
    """I_order(z)/I_0(z) from the scaled sequence, as fiducial.attenuations forms it."""
    seq = bessel_i_scaled_sequence(order, z)
    return seq[order] / seq[0]


def test_bessel_trivial_values():
    assert bessel_i_scaled_sequence(7, 0.0).tolist() == [1.0] + [0.0] * 7


def test_bessel_series_regression():
    assert math.exp(1.0) * bessel_i_scaled_sequence(0, 1.0)[0] == pytest.approx(I0_AT_1, rel=1e-14)


@pytest.mark.parametrize(
    "z", [1e-300, 1e-8, 1e-3, 0.1, 1.0, 5.0, 14.9, 15.0, 20.0, 50.0, 100.0, 400.0, 700.0]
)
def test_bessel_matches_mpmath(z):
    seq = bessel_i_scaled_sequence(40, z)
    with mpmath.workdps(40):
        for order in (0, 1, 2, 5, 12, 40):
            exact = float(mpmath.besseli(order, z) * mpmath.exp(-z))
            assert seq[order] == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_bessel_unscaled_matches_scipy():
    from scipy.special import iv

    for z in (0.5, 3.0, 12.0, 30.0, 200.0):
        seq = bessel_i_scaled_sequence(9, z)
        for order in (0, 1, 4, 9):
            assert math.exp(z) * seq[order] == pytest.approx(iv(order, z), rel=1e-12)


def test_bessel_scaled_huge_argument():
    with mpmath.workdps(40):
        exact = float(mpmath.besseli(3, 1e4) * mpmath.exp(-1e4))
    assert bessel_i_scaled_sequence(3, 1e4)[3] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("max_order, z, rescales", [
    (408, 50.0, 1), (0, 100.0, 0), (1, 100.0, 0), (0, 400.0, 1), (1700, 400.0, 4),
    (3000, 3200.0, 5), (100, 1e4, 13),
])
def test_miller_list_loop_matches_the_indexed_loop_bit_for_bit(max_order, z, rescales):
    # the rescale of values over 1e250 runs on Python floats as on the array
    expected, taken = miller_indexed(max_order, z)
    got = bessel_i_scaled_sequence(max_order, z)
    assert taken == rescales
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i_scaled_sequence(0, -1.0)
    with pytest.raises(ValueError):
        bessel_i_scaled_sequence(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_i_scaled_sequence(2.0, 1.0)


def test_ratio_trivial_and_quadrature_oracle():
    for z in (0.3, 2.0, 40.0):
        assert ratio(0, z) == 1.0
    assert ratio(1, 2.0) == pytest.approx(I1_OVER_I0_AT_2, abs=1e-13)


def test_ratio_large_argument_asymptotic():
    # I_n(z)/I_0(z) -> 1 - n^2/(2z) for z >> n^2
    z = 1e4
    assert ratio(1, z) == pytest.approx(1.0 - 1.0 / (2.0 * z), abs=1e-6)


def test_ratio_monotonic_in_order_and_argument():
    zs = [0.5, 1.0, 4.0, 20.0, 120.0]
    for z in zs:
        ratios = [ratio(n, z) for n in range(6)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
    for n in (1, 2, 3):
        values = [ratio(n, z) for z in zs]
        assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("z", [0.5, 2.0, 10.0, 50.0])
def test_squared_sum_approaches_addition_identity(z):
    # sum_{|n|<=N} I_n(z)^2 increases to I_0(2z) as N grows
    target = bessel_i_scaled_sequence(0, 2.0 * z)[0]  # e^{-2z} I_0(2z)
    partial = []
    for cutoff in (4, int(2 * z) + 8, int(8 * z) + 16):
        seq = bessel_i_scaled_sequence(cutoff, z)  # e^{-z} I_n(z)
        partial.append(seq[0] ** 2 + 2.0 * np.sum(seq[1:] ** 2))
    assert all(p <= target * (1 + 1e-14) for p in partial)
    assert partial[0] < partial[-1] <= target * (1 + 1e-14)
    assert partial[-1] == pytest.approx(target, rel=1e-13)


def test_grid_construction_and_validation():
    grid = QuadratureGrid.make(32)
    assert grid.weight * grid.node_count == pytest.approx(2 * math.pi, abs=1e-15)
    assert grid.nodes[0] == -math.pi
    assert np.allclose(np.diff(grid.nodes), grid.weight)
    with pytest.raises(ValueError):
        QuadratureGrid.make(8)
    with pytest.raises(ValueError):
        QuadratureGrid.make(33)


def test_integrate_periodic_trivial():
    grid = QuadratureGrid.make(16)
    assert integrate_periodic(np.ones_like(grid.nodes), grid) == pytest.approx(2 * math.pi)
    assert integrate_periodic(np.cos(grid.nodes), grid) == pytest.approx(0.0, abs=1e-15)


def test_integrate_periodic_bessel_oracle():
    grid = QuadratureGrid.make(64)
    value = integrate_periodic(np.exp(2.0 * np.cos(grid.nodes)), grid)
    assert value == pytest.approx(2 * math.pi * I0_AT_2, abs=1e-12)
    # doubling the grid does not move the answer (geometric convergence)
    fine = QuadratureGrid.make(128)
    value2 = integrate_periodic(np.exp(2.0 * np.cos(fine.nodes)), fine)
    assert abs(value - value2) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    degree=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_trig_polynomials_integrate_exactly(degree, seed):
    rng = np.random.default_rng(seed)
    coeffs_a = rng.normal(size=degree + 1)
    coeffs_b = rng.normal(size=degree + 1)
    grid = QuadratureGrid.make(16)

    def poly(t):
        total = coeffs_a[0] * np.ones_like(t)
        for n in range(1, degree + 1):
            total = total + coeffs_a[n] * np.cos(n * t) + coeffs_b[n] * np.sin(n * t)
        return total

    exact = 2 * math.pi * coeffs_a[0]
    assert integrate_periodic(poly(grid.nodes), grid) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 172, 475])
def test_gauss_legendre_matches_leggauss(n):
    [(x, w)] = gauss_legendre([n])
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - ref_x) <= 2 * np.spacing(np.abs(ref_x)))
    # against a 40-digit rule, leggauss' own weights are off by up to 1.0e-14
    # at n = 475 and these by 1.3e-16
    assert np.max(np.abs(w - ref_w)) <= 2e-14


def _legendre_rule_mpmath(n, guesses):
    """40-digit Newton polish of the nodes x >= 0 and their weights."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, guesses):
            for _ in range(4):
                p, q = x, mpmath.mpf(1)
                for j in range(2, n + 1):
                    p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
                slope = n * (x * p - q) / (x * x - 1)  # P_n'(x)
                x -= p / slope
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * slope**2)))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [64, 65])
def test_gauss_legendre_matches_mpmath(n):
    [(x, w)] = gauss_legendre([n])
    upper = slice(n // 2, None)
    exact_x, exact_w = _legendre_rule_mpmath(n, x[upper])
    assert np.all(np.abs(x[upper] - exact_x) <= np.spacing(exact_x))
    assert np.max(np.abs(w[upper] - exact_w)) <= 2e-16


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 172, 475])
def test_gauss_legendre_integrates_even_monomials(n):
    # exact for degree < 2n; leggauss misses by up to 7.9e-12 relative at 475
    [(x, w)] = gauss_legendre([n])
    for j in range(n):
        assert w @ x ** (2 * j) == pytest.approx(2 / (2 * j + 1), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [475, 8192])
def test_gauss_legendre_integrates_cosines(n):
    # leggauss misses these by up to 1.5e-14 at n = 475 and 1.7e-13 at 1000
    [(x, w)] = gauss_legendre([n])
    for a in (1.0, 10.0, 100.0, n / 4, n / 2):
        assert abs(w @ np.cos(a * x) - 2 * math.sin(a) / a) <= 1e-14


def test_gauss_legendre_is_exactly_symmetric():
    counts = [*range(1, 70), 171, 172, 474, 475]
    for n, (x, w) in zip(counts, gauss_legendre(counts)):
        assert x.size == w.size == n
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0
    for counts in ([0], [5, 0], []):
        with pytest.raises(ValueError):
            gauss_legendre(counts)


@pytest.mark.parametrize("counts", [
    [88, 143, 254, 475],  # the unity ladder at r/hbar = 10
    [475, 1, 88, 254, 143, 88],  # unsorted, count 1, a repeated count
    [64, 65, 2, 3, 8192],  # even and odd, and a recurrence far past the others
])
def test_batched_rules_equal_the_rule_of_each_count_alone(counts):
    # bit for bit, also against one recurrence per count with int coefficients
    batched = gauss_legendre(counts)
    assert len(batched) == len(counts)
    for n, (x, w) in zip(counts, batched):
        [(alone_x, alone_w)] = gauss_legendre([n])
        oracle_x, oracle_w = gauss_legendre_alone(n)
        assert x.size == n
        assert np.array_equal(x, alone_x) and np.array_equal(w, alone_w)
        assert np.array_equal(x, oracle_x) and np.array_equal(w, oracle_w)
    # any iterable of counts, read once
    for (x, w), (gx, gw) in zip(batched, gauss_legendre(n for n in counts), strict=True):
        assert np.array_equal(x, gx) and np.array_equal(w, gw)


def test_gauss_legendre_nonconvergence_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(specfun, "_NEWTON_STEPS", 1)
    with pytest.raises(specfun.ConvergenceError, match="Gauss-Legendre rules of 64, 3 nodes"):
        gauss_legendre([64, 3])
    out = tmp_path / "out"
    assert main(["unity", "--set", f"output.dir = {out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical contract violated:") and "Gauss-Legendre" in err
    assert not out.exists()
