import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleq.hilbert import (
    MomentumState,
    ResolutionError,
    TwistedBasis,
    default_cutoff,
    wrap_angle,
)
from circleq.fiducial import FiducialSpec, momentum_coefficients, default_basis

from oracles import (
    PositionWavefunction,
    QuadratureGrid,
    analyze,
    boundary_defect,
    check_boundary_phase,
    integrate_periodic,
    synthesize,
)

SQRT_2PI = math.sqrt(2 * math.pi)


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    return MomentumState(basis, coeffs / np.linalg.norm(coeffs))


def test_wrap_angle_range():
    for theta in (-9.0, -math.pi, 0.0, 3.0, math.pi, 7.5):
        w = wrap_angle(theta)
        assert -math.pi <= w < math.pi
        assert abs(math.remainder(w - theta, 2 * math.pi)) < 1e-12
    # an angle the chart holds comes back as it is, though (0.7 + pi) % 2 pi - pi
    # is 0.7000000000000002; -pi is in the chart, pi is not
    assert (wrap_angle(0.7), wrap_angle(-math.pi), wrap_angle(math.pi)) == (0.7, -math.pi, -math.pi)
    inside = np.append(np.random.default_rng(7).uniform(-math.pi, math.pi, 1000), 0.7)
    assert np.array_equal(wrap_angle(inside), inside)


def test_basis_reduces_alpha_mod_one():
    assert TwistedBasis(1.25, 1.0, 4).alpha == pytest.approx(0.25)
    assert TwistedBasis(-0.75, 1.0, 4).alpha == pytest.approx(0.25)
    # the lattice depends on alpha only mod 1: eigenvalue at alpha+1, slot n
    # coincides with slot n+1 at alpha
    b = TwistedBasis(0.3, 0.7, 6)
    assert 0.7 * (2 + (0.3 + 1.0)) == pytest.approx(b.momenta()[3 + b.cutoff_n])
    # alpha % 1.0 rounds a tiny negative twist to 1.0; the spec and the
    # basis built from it must agree on 0
    spec = FiducialSpec(r=1.0, alpha=-8.5e-26)
    assert spec.alpha == 0.0 and TwistedBasis(spec.alpha, 1.0, 4).alpha == 0.0


def test_basis_validation():
    with pytest.raises(ValueError):
        TwistedBasis(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        TwistedBasis(0.0, 1.0, 0)


@pytest.mark.parametrize(
    "hbar,alpha,n,expected",
    [(1.0, 0.0, 0, 0.0), (1.0, 0.25, 3, 3.25), (0.5, 0.5, -2, -0.75)],
)
def test_momentum_eigenvalue(hbar, alpha, n, expected):
    # slot n sits at index n + N of the lattice, eigenvalue hbar (n + alpha)
    basis = TwistedBasis(alpha, hbar, 8)
    assert basis.momenta()[n + basis.cutoff_n] == pytest.approx(expected, abs=1e-15)


def test_synthesize_basis_vectors():
    grid = QuadratureGrid.make(64)
    basis = TwistedBasis(0.0, 1.0, 4)
    e0 = np.zeros(basis.dimension)
    e0[4] = 1.0  # slot n = 0
    psi = synthesize(MomentumState(basis, e0), grid)
    assert np.allclose(psi.values, 1.0 / SQRT_2PI)

    basis_half = TwistedBasis(0.5, 1.0, 4)
    e1 = np.zeros(basis_half.dimension)
    e1[5] = 1.0  # slot n = 1
    psi1 = synthesize(MomentumState(basis_half, e1), grid)
    assert np.allclose(psi1.values, np.exp(1.5j * grid.nodes) / SQRT_2PI)


def test_analyze_plane_wave():
    grid = QuadratureGrid.make(64)
    basis = TwistedBasis(0.3, 1.0, 5)
    psi = PositionWavefunction(grid, np.exp(0.3j * grid.nodes) / SQRT_2PI)
    state = analyze(psi, basis)
    expected = np.zeros(basis.dimension)
    expected[5] = 1.0
    assert np.max(np.abs(state.coeffs - expected)) < 1e-14


def test_analyze_requires_resolution():
    grid = QuadratureGrid.make(16)
    with pytest.raises(ResolutionError):
        analyze(PositionWavefunction(grid, np.zeros(16)), TwistedBasis(0.0, 1.0, 8))


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_identity(alpha, seed):
    basis = TwistedBasis(alpha, 1.0, 12)
    grid = QuadratureGrid.make(64)
    state = random_state(basis, seed)
    back = analyze(synthesize(state, grid), basis)
    assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_parseval(seed):
    basis = TwistedBasis(0.4, 1.0, 10)
    grid = QuadratureGrid.make(64)
    state = random_state(basis, seed)
    psi = synthesize(state, grid)
    assert psi.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-10)
    quad = integrate_periodic(np.abs(psi.values) ** 2, grid)
    assert float(quad.real) == pytest.approx(state.norm_sq(), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_boundary_phase_zero_on_lattice_combinations(alpha, seed):
    basis = TwistedBasis(alpha, 1.0, 9)
    state = random_state(basis, seed)
    assert check_boundary_phase(state) < 1e-12


def test_boundary_phase_of_fiducial():
    spec = FiducialSpec(r=1.5, alpha=0.5)
    basis = default_basis(spec)
    assert check_boundary_phase(MomentumState(basis, momentum_coefficients(spec, basis))) < 1e-12


def test_boundary_phase_of_boosted_function():
    # multiplying by e^{i p theta / hbar} with non-integer p/hbar leaves the
    # twisted domain; the defect is reported, not forbidden
    spec = FiducialSpec(r=1.0, alpha=0.2)
    from circleq.fiducial import evaluate

    shift = 0.3

    def boosted(theta):
        return np.exp(1j * shift * theta) * evaluate(spec, theta)

    defect = boundary_defect(boosted, spec.alpha)
    value = abs(boosted(math.pi)) * abs(1.0 - np.exp(-2j * math.pi * shift))
    assert defect == pytest.approx(value, rel=1e-12)
    assert defect > 1e-3


def test_boundary_phase_callable_requires_alpha():
    # a callable carries no twist: the defect of a constant is |1 - e^{2 pi i alpha}|
    for alpha in (0.0, 0.25, 0.5):
        expected = abs(1.0 - np.exp(2j * math.pi * alpha))
        assert boundary_defect(lambda t: 1.0, alpha) == pytest.approx(expected, abs=1e-15)


def test_default_cutoff_scaling():
    assert default_cutoff(1.0) == 16
    assert default_cutoff(0.0) == 16
    assert default_cutoff(5.0, degree=3) == 51
