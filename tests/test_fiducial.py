import math

import numpy as np
import pytest

from circleq.hilbert import MomentumState, TwistedBasis

from oracles import PositionWavefunction, QuadratureGrid, analyze, check_boundary_phase, integrate_periodic
from circleq.fiducial import (
    FiducialSpec,
    attenuations,
    default_basis,
    evaluate,
    gaussian_bound_check,
    moments,
    momentum_coefficients,
    normalization,
)

R_GRID = (0.5, 1.0, 2.0, 10.0, 50.0)
ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.9)


def test_spec_validation():
    with pytest.raises(ValueError):
        FiducialSpec(r=-0.1)
    with pytest.raises(ValueError):
        FiducialSpec(r=1.0, hbar=0.0)
    assert FiducialSpec(r=1.0, alpha=1.25).alpha == pytest.approx(0.25)


def test_normalization_uniform_limit():
    assert normalization(FiducialSpec(r=0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


@pytest.mark.parametrize("r,tol", [(1.0, 1e-12), (200.0, 1e-10)])
def test_normalization_against_quadrature(r, tol):
    # the peak amplitude is fixed by unit total probability
    spec = FiducialSpec(r=r, alpha=0.3)
    grid = QuadratureGrid.make(4096)
    total = integrate_periodic(np.abs(evaluate(spec, grid.nodes)) ** 2, grid)
    assert float(total.real) == pytest.approx(1.0, abs=tol)
    assert math.isfinite(normalization(spec))


def test_evaluate_peak_and_seam():
    spec = FiducialSpec(r=1.5, alpha=0.0)
    peak = normalization(spec)
    assert evaluate(spec, 0.0) == pytest.approx(peak)
    assert evaluate(spec, math.nextafter(math.pi, 0.0)) == pytest.approx(
        peak * math.exp(-2.0 * 1.5), rel=1e-12
    )


def test_evaluate_even_magnitude():
    spec = FiducialSpec(r=3.0, alpha=0.7)
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, math.pi, size=32)
    assert np.allclose(np.abs(evaluate(spec, theta)), np.abs(evaluate(spec, -theta)))


def test_momentum_coefficients_uniform_state():
    spec = FiducialSpec(r=0.0)
    c = momentum_coefficients(spec, TwistedBasis(0.0, 1.0, 6))
    expected = np.zeros(13)
    expected[6] = 1.0  # c_n collapses to the Kronecker delta at n = 0
    assert c.dtype == np.float64
    assert np.allclose(c, expected, atol=1e-15)
    assert c @ c == pytest.approx(1.0)


def test_momentum_coefficients_match_quadrature_projection():
    # validate the closed form against the analyze() projection before
    # trusting it anywhere else
    spec = FiducialSpec(r=1.0, alpha=0.3)
    basis = TwistedBasis(0.3, 1.0, 16)
    grid = QuadratureGrid.make(512)
    closed = momentum_coefficients(spec, basis)
    projected = analyze(PositionWavefunction(grid, evaluate(spec, grid.nodes)), basis)
    assert np.max(np.abs(closed - projected.coeffs)) < 1e-10
    assert np.all(closed >= 0.0)
    assert np.allclose(closed, closed[::-1])  # even in n


def test_momentum_coefficients_completeness_ladder():
    # sum of squares climbs to 1 as the lattice widens
    spec = FiducialSpec(r=4.0, alpha=0.0, hbar=1.0)
    norms = [
        float(np.sum(momentum_coefficients(spec, TwistedBasis(0.0, 1.0, cutoff)) ** 2))
        for cutoff in (2, 6, 12, 40)
    ]
    assert all(a < b or b == pytest.approx(1.0, abs=1e-13) for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-13)


def test_momentum_coefficients_mismatch_errors():
    spec = FiducialSpec(r=1.0, alpha=0.2, hbar=1.0)
    with pytest.raises(ValueError):
        momentum_coefficients(spec, TwistedBasis(0.3, 1.0, 8))
    with pytest.raises(ValueError):
        momentum_coefficients(spec, TwistedBasis(0.2, 0.5, 8))


def test_centering_grid():
    # physically centered: <Q> = 0, <P> = hbar alpha across the whole grid
    for r in R_GRID:
        for alpha in ALPHA_GRID:
            spec = FiducialSpec(r=r, alpha=alpha, hbar=1.0)
            mom = moments(spec)
            assert abs(mom.mean_q) < 1e-9
            assert abs(mom.mean_p - alpha) < 1e-9


def test_centering_with_scaled_hbar():
    mom = moments(FiducialSpec(r=2.0, alpha=0.3, hbar=0.5))
    assert mom.mean_p == pytest.approx(0.5 * 0.3, abs=1e-10)


def test_boundary_membership_grid():
    for r in R_GRID:
        for alpha in ALPHA_GRID:
            spec = FiducialSpec(r=r, alpha=alpha)
            basis = default_basis(spec)
            state = MomentumState(basis, momentum_coefficients(spec, basis))
            assert check_boundary_phase(state) < 1e-12


def test_variance_asymptotics_and_closed_form():
    spec = FiducialSpec(r=50.0, alpha=0.25, hbar=1.0)
    mom = moments(spec)
    assert 0.95 <= mom.var_p / (spec.hbar * spec.r / 2.0) <= 1.05
    # independent closed form var_p = r^2 (1 - <cos 2Q>) / 2
    oracle = spec.r**2 * (1.0 - attenuations(spec, 2)[2]) / 2.0
    assert mom.var_p == pytest.approx(oracle, rel=1e-10)
    assert mom.var_p >= 0.0


def test_variance_uniform_state_is_zero():
    assert moments(FiducialSpec(r=0.0, alpha=0.3)).var_p == pytest.approx(0.0, abs=1e-15)


def test_cos_moments_structure_and_quadrature_oracle():
    spec = FiducialSpec(r=2.0, alpha=0.1)
    rho = attenuations(spec, 4)
    assert rho[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(rho) < 0.0) and np.all(rho >= 0.0) and np.all(rho <= 1.0)
    grid = QuadratureGrid.make(1024)
    density = np.abs(evaluate(spec, grid.nodes)) ** 2
    for n in range(5):
        direct = integrate_periodic(np.cos(n * grid.nodes) * density, grid)
        assert float(direct.real) == pytest.approx(rho[n], abs=1e-10)
    # <sin nQ> vanishes by the even density; asserted as a guard
    for n in range(1, 5):
        odd = integrate_periodic(np.sin(n * grid.nodes) * density, grid)
        assert abs(odd) < 1e-12


def test_attenuation_asymptotics():
    # z (1 - I_n(z)/I_0(z)) -> n^2/2, the first-order correction scale
    ladder = (50.0, 100.0, 200.0, 400.0)
    for n in (1, 2, 3):
        target = n * n / 2.0
        gaps = [abs(z * (1.0 - attenuations(FiducialSpec(r=z / 2), n)[n]) - target) for z in ladder]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        final = ladder[-1] * (1.0 - attenuations(FiducialSpec(r=ladder[-1] / 2), n)[n])
        assert abs(final - target) <= 0.05 * target


def test_uniform_state_attenuations_are_exact():
    # the sequence's series branch at z = 0, with no special case for r = 0
    assert attenuations(FiducialSpec(r=0.0), 4).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("ratio", [1.0, 5.0, 20.0])
def test_gaussian_bound_two_sided(ratio):
    check = gaussian_bound_check(FiducialSpec(r=ratio, hbar=1.0))
    assert check.passed
    assert check.upper_margin >= -1e-10 and check.lower_margin >= -1e-10


def test_gaussian_bound_equality_at_peak():
    spec = FiducialSpec(r=2.0)
    # at theta = 0 the lower envelope touches the density exactly
    assert abs(evaluate(spec, 0.0)) ** 2 == pytest.approx(normalization(spec) ** 2, rel=1e-14)


def test_gaussian_bound_requires_concentration():
    # the uniform state r = 0 meets both bounds with equality: margins +0.0
    check = gaussian_bound_check(FiducialSpec(r=0.0))
    assert (check.passed, check.upper_margin, check.lower_margin) == (True, 0.0, 0.0)
    assert not np.signbit([check.upper_margin, check.lower_margin]).any()


def test_envelope_width_scaling():
    # the e^{-1/2} half-width of the density matches the Gaussian scale
    # sqrt(hbar/r) / sqrt(2) within 10 percent
    from scipy.optimize import brentq

    spec = FiducialSpec(r=20.0, hbar=1.0)
    peak_sq = normalization(spec) ** 2

    def excess(theta):
        return abs(evaluate(spec, theta)) ** 2 / peak_sq - math.exp(-0.5)

    width = brentq(excess, 1e-6, math.pi - 1e-9)
    sigma = math.sqrt(spec.hbar / spec.r) / math.sqrt(2.0)
    assert abs(width - sigma) <= 0.1 * sigma
