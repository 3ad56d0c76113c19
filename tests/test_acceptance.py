"""Acceptance battery: every release criterion at its stated tolerance.

Each test prints one `[acceptance NN] PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py` or in the captured output of a
failing run) and asserts the same condition.
"""

import math
import time

import numpy as np

from circleq.hilbert import TwistedBasis
from circleq.cli import RunConfig, cmd_fiducial
from circleq.fiducial import FiducialSpec, attenuations, evaluate, moments
from circleq.coherent import verify_unity
from circleq.enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    canonical_shift,
    classical_hamiltonian,
    enhanced_hamiltonian,
)
from circleq.dynamics import evolve
from circleq.qevolve import build_hamiltonian, compare_restricted

from oracles import QuadratureGrid, action_along, alpha_invariance_check, phase_point, winding_number
from test_coherent import literal_unity_reference
from test_enhanced import displaced_expectation
from test_qevolve import revival_compare


def report(number, ok, detail):
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_centering():
    start = time.perf_counter()
    worst_q = worst_p = 0.0
    for r in (0.5, 1.0, 2.0, 10.0, 50.0):
        for alpha in (0.0, 0.1, 0.25, 0.5, 0.9):
            mom = moments(FiducialSpec(r=r, alpha=alpha, hbar=1.0))
            worst_q = max(worst_q, abs(mom.mean_q))
            worst_p = max(worst_p, abs(mom.mean_p - alpha))
    elapsed = time.perf_counter() - start
    ok = worst_q <= 1e-9 and worst_p <= 1e-9 and elapsed < 1.0
    report(1, ok, f"centering |<Q>|={worst_q:.2e} |<P>-ha|={worst_p:.2e} ({elapsed:.2f}s)")


def test_criterion_02_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.3, 0.62):
        basis = TwistedBasis(alpha, 1.0, 32)
        ham = build_hamiltonian(TrigPotential(), basis)
        eigenvalues = np.linalg.eigvalsh(ham.matrix)
        worst = max(worst, float(np.max(np.abs(eigenvalues - np.sort(basis.momenta() ** 2)))))
    # alpha = 0 keeps the +/-n doublets, a generic twist splits them
    doublets = np.sort(TwistedBasis(0.0, 1.0, 32).momenta() ** 2)
    degenerate = np.min(np.abs(np.diff(doublets[1:]))) == 0.0
    split_spectrum = np.sort(TwistedBasis(0.3, 1.0, 32).momenta() ** 2)
    split = np.min(np.abs(np.diff(split_spectrum))) > 0.0
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and degenerate and split and elapsed < 1.0
    report(2, ok, f"free spectrum error {worst:.2e}, doublets kept/split ok ({elapsed:.2f}s)")


def test_criterion_03_resolution_of_unity():
    start = time.perf_counter()
    spec = FiducialSpec(r=1.0, alpha=0.25, hbar=1.0)
    basis = TwistedBasis(0.25, 1.0, 32)
    scale = math.sqrt(spec.hbar * max(spec.r, spec.hbar))
    interior = np.abs(basis.n_values()) <= max(spec.localization, 1.0)
    defects, offdiags, gaps = [], [], []
    factors = (5.0, 10.0, 20.0, 40.0)
    for factor, rep in zip(factors, verify_unity(spec, basis, [f * scale for f in factors])):
        # the literal double sum over momentum and angle nodes
        diag, offdiag = literal_unity_reference(spec, basis, factor * scale, full_2d=True)
        defects.append(float(np.max(np.abs(rep.diag_entries[interior] - 1.0))))
        offdiags.append(offdiag)
        gaps.append(float(np.max(np.abs(rep.diag_entries - diag))))
    elapsed = time.perf_counter() - start
    ok = (
        max(offdiags) <= 1e-10
        and max(gaps) <= 1e-13
        and defects[-1] <= 1e-3
        and all(a > b for a, b in zip(defects, defects[1:]))
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"unity offdiag {max(offdiags):.1e}, diag vs oracle {max(gaps):.1e}, interior diag ladder "
        f"{['%.1e' % d for d in defects]} ({elapsed:.1f}s)",
    )


def test_criterion_04_energy_surface_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    grid = QuadratureGrid.make(1024)
    worst = 0.0
    for _ in range(50):
        degree = int(rng.integers(1, 4))
        pot = TrigPotential(
            a0=float(rng.normal()),
            a=tuple(rng.normal(size=degree)),
            b=tuple(rng.normal(size=degree)),
        )
        hbar = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        spec = FiducialSpec(
            r=float(rng.uniform(0.5, 40.0)) * hbar, alpha=float(rng.uniform(0, 1)), hbar=hbar
        )
        model = EnhancedHamiltonian.build(pot, spec)
        p = float(rng.uniform(-3, 3))
        q = float(rng.uniform(-math.pi, math.pi))
        gap = abs(enhanced_hamiltonian(model, p, q) - displaced_expectation(model, p, q, grid))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(4, ok, f"closed form vs expectation oracle, 50 tuples, worst {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_classical_limit():
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
                worst = max(
                    worst,
                    abs(
                        enhanced_hamiltonian(model, canonical_shift(p, spec), q)
                        - classical_hamiltonian(pot, p, q)
                        - model.kinetic_offset
                    ),
                )
        defects.append(worst)
    slope = float(np.polyfit(np.log(ratios), np.log(defects), 1)[0])
    rho = attenuations(FiducialSpec(r=200.0), 3)  # I_n(400)/I_0(400)
    attenuation_gap = max(
        abs(400.0 * (1.0 - rho[n]) - n * n / 2.0) / (n * n / 2.0) for n in (1, 2, 3)
    )
    ok = abs(slope + 1.0) <= 0.15 and attenuation_gap <= 0.05
    report(5, ok, f"classical-limit slope {slope:.3f}, z(1-rho_n) gap {attenuation_gap:.3%} at z=400")


def test_criterion_06_alpha_invariance():
    model = EnhancedHamiltonian.build(TrigPotential(a=(1.0,)), FiducialSpec(r=2.0))
    alphas = (0.0, 0.25, 0.5, 0.75)
    compensated = alpha_invariance_check(model, 0.7, 0.5, alphas, 0.01, 1000)
    control = alpha_invariance_check(model, 0.7, 0.5, alphas, 0.01, 1000, compensated=False)
    ok = compensated <= 1e-10 and control > 1e-3
    report(6, ok, f"alpha-invariance {compensated:.2e} (control {control:.2e})")


def test_criterion_07_surface_term():
    alpha, hbar = 0.3, 1.0
    model = EnhancedHamiltonian.build(TrigPotential(), FiducialSpec(r=2.0, alpha=alpha))
    # free drift at rate 2 p0 = 2 pi closes exactly one turn at T = 1
    traj = evolve("classical", model, math.pi, -1.0, 0.01, 100)
    winding = winding_number(traj)
    gap = action_along(traj, model, True) - action_along(traj, model, False)
    defect = abs(gap - 2.0 * math.pi * hbar * alpha * winding)
    ok = winding == 1 and defect <= 1e-10
    report(7, ok, f"surface term winding={winding}, defect {defect:.2e}")


def test_criterion_08_symplectic_integrity():
    model = EnhancedHamiltonian.build(TrigPotential(a=(1.0,)), FiducialSpec(r=2.0))
    p0, q0 = 0.0, math.pi - 0.8
    horizon = 4.0
    reference = evolve("classical", model, p0, q0, 0.01 / 16, int(horizon / (0.01 / 16)))
    dts = (0.08, 0.04, 0.02, 0.01)
    errors = [
        abs(
            evolve("classical", model, p0, q0, dt, int(horizon / dt)).q_unwrapped[-1]
            - reference.q_unwrapped[-1]
        )
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])

    forward = evolve("classical", model, p0, q0, 0.01, 1000)
    back = evolve("classical", model, *phase_point(forward, 1000), -0.01, 1000)
    reversal = max(abs(back.q_unwrapped[-1] - q0), abs(back.p[-1] - p0))

    drift_traj = evolve("classical", model, 0.0, math.pi - 0.3, 0.002, 100000)
    drift = float(np.max(np.abs(drift_traj.energies - drift_traj.energies[0])))
    late = float(np.max(np.abs(drift_traj.energies[-10000:] - drift_traj.energies[0])))
    early = float(np.max(np.abs(drift_traj.energies[:10000] - drift_traj.energies[0])))

    ok = abs(slope - 2.0) <= 0.1 and reversal <= 1e-9 and late <= 1.5 * early and drift < 1e-6
    report(
        8,
        ok,
        f"order slope {slope:.3f}, reversal {reversal:.1e}, "
        f"energy band {drift:.1e} (early {early:.1e} / late {late:.1e})",
    )


def test_criterion_09_quantum_classical_correspondence():
    free = EnhancedHamiltonian.build(TrigPotential(), FiducialSpec(r=8.0, alpha=0.25))
    free_report = compare_restricted(free, 2.3, -0.5, dt=0.01, steps=500)
    momentum_gap = float(np.max(free_report.momentum_deviation))

    hbar = 0.05
    sharp = EnhancedHamiltonian.build(
        TrigPotential(a=(1.0,)), FiducialSpec(r=50 * hbar, alpha=0.25, hbar=hbar)
    )
    # one small-oscillation period about q = pi is ~4.5 time units
    pendulum = compare_restricted(sharp, 0.0, math.pi - 0.4, dt=0.002, steps=2300)
    phase_gap = float(np.max(pendulum.phase_deviation))
    ok = momentum_gap <= 1e-9 and phase_gap < 0.05
    report(9, ok, f"free momentum gap {momentum_gap:.1e}, pendulum phase gap {phase_gap:.3f}")


def test_criterion_10_gaussian_envelope():
    # the computed density against the profile's closed-form envelopes
    # N^2 e^{-z theta^2} and e^{z (pi^2 - 4)} N^2 e^{-z theta^2}, wherever
    # the density is a normal double
    ok, excess = True, []
    for ratio in (1.0, 5.0, 20.0, 200.0):
        cfg = RunConfig.load("fiducial", overrides=[f"model.r = {ratio}"])
        tables, _ = cmd_fiducial(cfg)
        profile = {file: table for file, _, table in tables}["fiducial_profile.csv"]
        density = np.abs(evaluate(cfg.spec, profile["theta"])) ** 2
        normal = density >= np.finfo(float).tiny
        log_density = np.log(density[normal])
        worst = max(float(np.max(log_density - profile["log_upper_envelope"][normal])),
                    float(np.max(profile["log_lower_envelope"][normal] - log_density)))
        ok &= worst <= 1e-12 and 2 * normal.sum() > normal.size
        excess.append((ratio, int(normal.sum()), f"{worst:.1e}"))
    report(10, ok, f"log |eta|^2 within 1e-12 of K=exp(z(pi^2-4)) envelopes "
                   f"(r/hbar, normal angles, worst excess): {excess}")


def test_criterion_12_revivals():
    # criterion 11 is reserved for the order of contact of the enhanced flow
    quarter, half, full = 5000, 10000, 20000
    ok, readings = True, []
    for ratio in (10.0, 50.0):
        free, _ = revival_compare(ratio, 0.25, 1.0)
        coherence, phase = free.coherence, free.phase_deviation
        restored = abs(coherence[full] - coherence[0])
        ok &= restored <= 1e-12 and phase[full] <= 1e-9 and phase[half] >= 1.99
        ok &= coherence[quarter] <= 1e-10
        readings.append(f"r/hbar={ratio:g} coherence restored to {restored:.1e}, phase gap "
                        f"{phase[full]:.1e} (T_rev) / {phase[half]:.3f} (T_rev/2), "
                        f"coherence {coherence[quarter]:.1e} at T_rev/4")
    pendulum, _ = revival_compare(50.0, 0.25, 1.0, TrigPotential(a=(1.0,)))
    readings.append(f"pendulum (a=1) coherence {pendulum.coherence[full]:.2f} at T_rev, no bound")
    report(12, bool(ok), "free-circle revival: " + "; ".join(readings))


def test_criterion_14_ehrenfest_window_scaling():
    # criterion 13 is reserved for the whole spectrum through thermodynamics.
    # On a regular orbit the break time grows like (r/hbar)^{1/2} (Berry,
    # Balazs, Tabor and Voros, Ann. Phys. 122 (1979) 26)
    r, dt, steps, ratios = 2.5, 0.005, 2000, (10.0, 20.0, 40.0, 80.0, 160.0)
    ok, readings = True, []
    for a, p0, q0 in (((1.0,), 1.5, 0.0), ((1.0, 0.3), 1.6, 0.7)):
        start, windows = time.perf_counter(), []
        for ratio in ratios:
            hbar = r / ratio
            model = EnhancedHamiltonian.build(TrigPotential(a=a), FiducialSpec(r=r, hbar=hbar))
            window = compare_restricted(model, hbar * round(p0 / hbar), q0, dt, steps).ehrenfest_window
            ok &= window < dt * steps
            windows.append(window)
        slope = float(np.polyfit(np.log(ratios), np.log(windows), 1)[0])
        ok &= 0.35 <= slope <= 0.65
        readings.append(f"a={a} p0={p0} q0={q0}: windows {[round(w, 3) for w in windows]}, "
                        f"slope {slope:.3f} ({time.perf_counter() - start:.2f}s)")
    report(14, bool(ok), "Ehrenfest window against r/hbar: " + "; ".join(readings))
