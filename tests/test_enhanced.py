import math

import mpmath
import numpy as np
import pytest

from circleq.specfun import QuadratureGrid, integrate_periodic
from circleq.hilbert import TwistedBasis, default_cutoff
from circleq.fiducial import FiducialSpec, evaluate, moments, momentum_coefficients
from circleq.enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    canonical_shift,
    classical_hamiltonian,
    enhanced_hamiltonian,
    surface_term,
)


def displaced_expectation(model, p, q, grid=None):
    """Independent oracle for the coherent-state energy surface.

    Kinetic part from the lattice sum over the fiducial coefficients with
    shifted momenta, potential part from position-space quadrature of the
    rotated potential against the fiducial density.  No attenuation
    factors are used anywhere on this route.
    """
    spec, potential = model.spec, model.potential
    if grid is None:
        grid = QuadratureGrid.make(1024)
    basis = TwistedBasis(spec.alpha, spec.hbar, default_cutoff(spec.localization, potential.degree))
    weights = momentum_coefficients(spec, basis).coeffs.real ** 2
    kinetic = float(((basis.momenta() + p) ** 2) @ weights)
    density = np.abs(evaluate(spec, grid.nodes)) ** 2
    rotated = potential.value(grid.nodes + q)
    return kinetic + float(integrate_periodic(density * rotated, grid).real)


def test_potential_padding_and_scale():
    pot = TrigPotential(a0=0.5, a=(1.0, 2.0), b=(0.25,))
    assert pot.b == (0.25, 0.0)
    assert pot.degree == 2
    assert pot.coefficient_scale() == pytest.approx(0.5 + 1.0 + 2.0 + 0.25)
    with pytest.raises(ValueError):
        TrigPotential(a0=math.inf)


def test_potential_value_and_derivative():
    pot = TrigPotential(a0=0.3, a=(1.0,), b=(0.0, 2.0))
    q = 0.7
    assert pot.value(q) == pytest.approx(0.3 + math.cos(q) + 2.0 * math.sin(2 * q))
    assert pot.derivative(q) == pytest.approx(-math.sin(q) + 4.0 * math.cos(2 * q))


def test_kinetic_only_surface():
    spec = FiducialSpec(r=2.0, alpha=0.0)
    model = EnhancedHamiltonian.build(TrigPotential.free(), spec)
    assert enhanced_hamiltonian(model, 2.0, 0.3) == pytest.approx(4.0 + model.kinetic_offset)


@pytest.mark.parametrize("r", [0.0, 0.1, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("hbar", [1.0, 0.5, 0.05, 0.0125])
def test_kinetic_offset_matches_lattice_variance(r, hbar):
    # closed form hbar r rho_1 / 2 against the centered lattice-sum
    # variance of moments() and against 40-digit Bessel ratios
    for alpha in (0.0, 0.3, 0.9):
        spec = FiducialSpec(r=r, alpha=alpha, hbar=hbar)
        model = EnhancedHamiltonian.build(TrigPotential.pendulum(), spec)
        mom = moments(spec)
        assert model.kinetic_offset == pytest.approx(mom.var_p, rel=1e-13)
        with mpmath.workdps(40):
            z = mpmath.mpf(2.0 * r) / hbar
            exact = float(hbar * r * mpmath.besseli(1, z) / mpmath.besseli(0, z) / 2) if r else 0.0
        assert model.kinetic_offset == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_array_surfaces_match_scalar_calls():
    spec = FiducialSpec(r=0.8, alpha=0.35, hbar=0.4)
    potential = TrigPotential(a0=0.2, a=(1.0, -0.3), b=(0.0, 0.5, 0.1))
    model = EnhancedHamiltonian.build(potential, spec)
    p, q = np.meshgrid(np.linspace(-3.0, 3.0, 7), np.linspace(-math.pi, math.pi, 11), indexing="ij")
    h_cs = enhanced_hamiltonian(model, p, q)
    h_c = classical_hamiltonian(potential, p, q)
    assert h_cs.shape == h_c.shape == p.shape
    for (i, j), p_ij in np.ndenumerate(p):
        scalar = enhanced_hamiltonian(model, p_ij, q[i, j])
        assert isinstance(scalar, float)
        assert h_cs[i, j] == scalar
        assert h_c[i, j] == classical_hamiltonian(potential, p_ij, q[i, j])


def test_closed_form_matches_displaced_expectation_grid():
    rng = np.random.default_rng(3)
    pot = TrigPotential(a0=0.2, a=tuple(rng.normal(size=3)), b=tuple(rng.normal(size=3)))
    spec = FiducialSpec(r=5.0, alpha=0.35)
    model = EnhancedHamiltonian.build(pot, spec)
    for p in (-3.0, 0.0, 1.4, 3.0):
        for q in np.linspace(-math.pi, math.pi, 9):
            closed = enhanced_hamiltonian(model, p, q)
            assert closed == pytest.approx(displaced_expectation(model, p, q), abs=1e-9)


def test_oracle_equivalence_random_tuples():
    # 50 random (potential, r, alpha, hbar, p, q) tuples at 1e-8
    rng = np.random.default_rng(7)
    grid = QuadratureGrid.make(1024)
    for _ in range(50):
        degree = int(rng.integers(1, 4))
        pot = TrigPotential(
            a0=float(rng.normal()),
            a=tuple(rng.normal(size=degree)),
            b=tuple(rng.normal(size=degree)),
        )
        hbar = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        spec = FiducialSpec(r=float(rng.uniform(0.5, 40.0)) * hbar, alpha=float(rng.uniform(0, 1)), hbar=hbar)
        model = EnhancedHamiltonian.build(pot, spec)
        p = float(rng.uniform(-3, 3))
        q = float(rng.uniform(-math.pi, math.pi))
        assert enhanced_hamiltonian(model, p, q) == pytest.approx(
            displaced_expectation(model, p, q, grid), abs=1e-8
        )


def test_classical_hamiltonian_values():
    assert classical_hamiltonian(TrigPotential.free(), 1.0, 0.0) == 1.0
    assert classical_hamiltonian(TrigPotential.pendulum(), 0.0, 0.0) == pytest.approx(1.0)


def test_enhanced_minus_classical_bounded_by_attenuation():
    pot = TrigPotential(a=(0.7, -0.4), b=(0.1, 0.3))
    spec = FiducialSpec(r=3.0, alpha=0.2)
    model = EnhancedHamiltonian.build(pot, spec)
    bound = sum(abs(a) + abs(b) for a, b in zip(pot.a, pot.b)) * float(
        np.max(1.0 - model.attenuation)
    )
    for p in (-1.0, 0.5, 2.0):
        for q in np.linspace(-math.pi, math.pi, 17):
            gap = abs(
                enhanced_hamiltonian(model, canonical_shift(p, spec), q)
                - classical_hamiltonian(pot, p, q)
                - model.kinetic_offset
            )
            assert gap <= bound + 1e-12


def test_canonical_shift_values_and_identity():
    spec = FiducialSpec(r=1.0, alpha=0.25, hbar=1.0)
    assert canonical_shift(1.0, spec) == pytest.approx(0.75)
    assert canonical_shift(1.0, FiducialSpec(r=1.0, alpha=0.0)) == 1.0
    # at the shifted argument the surface is p-symmetric: p^2 + const + V_rho
    pot = TrigPotential(a=(0.8,), b=(0.2,))
    model = EnhancedHamiltonian.build(pot, spec)
    for p in (-2.0, -0.3, 1.7):
        for q in (-1.0, 0.0, 2.0):
            direct = enhanced_hamiltonian(model, canonical_shift(p, spec), q)
            symmetric = p * p + model.kinetic_offset + model.effective_potential().value(q)
            assert direct == pytest.approx(symmetric, abs=1e-12)


def test_classical_limit_rate():
    # residual after the shift decays like hbar/r: log-log slope -1
    pot = TrigPotential(a0=0.1, a=(0.7, -0.4, 0.2), b=(0.1, 0.3, -0.2))
    ratios = np.array([10.0, 40.0, 160.0, 640.0])
    qs = np.linspace(-math.pi, math.pi, 41)
    defects = []
    for ratio in ratios:
        spec = FiducialSpec(r=ratio, alpha=0.3, hbar=1.0)
        model = EnhancedHamiltonian.build(pot, spec)
        worst = 0.0
        for p in (-2.0, 0.0, 1.5):
            for q in qs:
                gap = abs(
                    enhanced_hamiltonian(model, canonical_shift(p, spec), q)
                    - classical_hamiltonian(pot, p, q)
                    - model.kinetic_offset
                )
                worst = max(worst, gap)
        defects.append(worst)
    slope = np.polyfit(np.log(ratios), np.log(defects), 1)[0]
    assert abs(slope + 1.0) <= 0.15


def test_vector_field_alpha_independent_in_shifted_variable():
    # (dH/dp, -dH/dq) evaluated at (p - hbar alpha, q) does not see alpha
    pot = TrigPotential(a=(0.6,), b=(-0.3,))
    reference = None
    for alpha in (0.0, 0.25, 0.7):
        spec = FiducialSpec(r=2.0, alpha=alpha)
        model = EnhancedHamiltonian.build(pot, spec)
        shift = spec.hbar * spec.alpha
        field = []
        for p in (-1.0, 0.4):
            for q in (-2.0, 0.3, 1.9):
                dp = 2.0 * ((canonical_shift(p, spec)) + shift)
                dq = -float(
                    np.asarray(
                        TrigPotential(0.0, tuple(model.attenuation * np.array(pot.a)),
                                      tuple(model.attenuation * np.array(pot.b))).derivative(q)
                    )
                )
                field.append((dp, dq))
        if reference is None:
            reference = field
        else:
            assert np.max(np.abs(np.array(field) - np.array(reference))) < 1e-12


def test_surface_term_values():
    assert surface_term(0.0, 1.0, 3.0) == 0.0
    assert surface_term(0.3, 2.0, 1.5) == pytest.approx(0.9)


def test_rho_near_classical_limit():
    # pendulum with r/hbar = 100: rho_1 within 1e-3 of 1 - hbar/(4r)
    spec = FiducialSpec(r=100.0, alpha=0.0, hbar=1.0)
    model = EnhancedHamiltonian.build(TrigPotential.pendulum(), spec)
    assert abs(model.attenuation[0] - (1.0 - 1.0 / 400.0)) < 1e-3
    value = enhanced_hamiltonian(model, 0.0, 0.0)
    assert value == pytest.approx(model.attenuation[0] + model.kinetic_offset, abs=1e-12)
