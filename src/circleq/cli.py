"""Batch front-end: config parsing, command dispatch, CSV emission and
plot-script generation.

Configuration grammar
---------------------
Flat ``key = value`` lines with dotted section prefixes; ``#`` starts a
comment, blank lines are ignored, later assignments win.  No positional
arguments beyond the subcommand; a file is passed with ``--config`` and
single keys are overridden with ``--set key=value`` (repeatable).

====================  =======================================================
key                   meaning (default)
====================  =======================================================
model.hbar            action scale, > 0 (1.0)
model.alpha           twist of the boundary condition, reduced mod 1 (0.0)
model.r               fiducial concentration, >= 0, action units (1.0)
model.potential.a0    constant potential term (0.0)
model.potential.a     comma list: cos coefficients a_1..a_m (empty)
model.potential.b     comma list: sin coefficients b_1..b_m (empty)
run.grid_nodes        angular quadrature nodes, even, >= 16 (512)
run.cutoff            lattice half-width N, 1..4095, or ``auto`` (auto)
run.max_harmonic      harmonics reported by ``fiducial``, or ``auto`` (auto)
run.samples           sample count for the envelope check (10000)
run.profile_points    rows in the fiducial profile table (720)
run.p_cutoff_factors  comma list, momentum cutoffs in units of
                      sqrt(hbar max(r, hbar)) (5, 10, 20, 40)
run.p_nodes           minimum momentum quadrature nodes, >= 64 (64)
run.full_2d           literal 2-D unity quadrature, true/false (true)
run.kind              ``evolve`` flavor: classical|enhanced|quantum (enhanced)
run.q0, run.p0        initial phase-space point (0.0, 1.0)
run.dt                time step, or ``auto`` (auto)
run.steps             step count (1000)
run.total_time        horizon for ``compare``; overrides steps (auto)
run.p_grid            ``hamiltonian`` momentum axis: min, max, count (-3, 3, 25)
run.q_points          ``hamiltonian`` angle axis point count (73)
run.seed              seed for randomized self-checks (0)
output.dir            output directory (circleq-out); the environment
                      variable CIRCLEQ_OUTDIR overrides it
====================  =======================================================

Exit codes: 0 success, 1 configuration error, 2 numerical-contract
violation, 3 I/O error.

Outputs are CSV only, 17 significant digits, plus a generated matplotlib
script per command; reruns with the same config and seed are
byte-identical except for the ``# generated:`` header line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import CoherentLabel, verify_unity
from .dynamics import PhasePoint, alpha_invariance_check, evolve
from .enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    canonical_shift,
    classical_hamiltonian,
    enhanced_hamiltonian,
)
from .fiducial import (
    FiducialSpec,
    default_basis,
    evaluate,
    gaussian_bound_check,
    moments,
    momentum_coefficients,
    normalization,
)
from .coherent import coherent_state
from .hilbert import (
    MomentumState,
    ResolutionError,
    TwistedBasis,
    analyze,
    check_boundary_phase,
    default_cutoff,
    synthesize,
)
from .qevolve import (
    MAX_LATTICE_DIM,
    build_hamiltonian,
    compare_restricted,
    comparison_basis,
    evolve_quantum,
)
from .specfun import QuadratureGrid, bessel_i, integrate_periodic

OUTDIR_ENV = "CIRCLEQ_OUTDIR"
SCHEMA_VERSION = "v1"
# largest lattice half-width N any command builds
_MAX_CUTOFF = (MAX_LATTICE_DIM - 1) // 2


class ConfigError(ValueError):
    """Bad key, unparsable value, or out-of-range parameter."""


class ContractViolation(RuntimeError):
    """A numerical invariant the package guarantees failed to hold."""


_DEFAULTS = {
    "model.hbar": "1.0",
    "model.alpha": "0.0",
    "model.r": "1.0",
    "model.potential.a0": "0.0",
    "model.potential.a": "",
    "model.potential.b": "",
    "run.grid_nodes": "512",
    "run.cutoff": "auto",
    "run.max_harmonic": "auto",
    "run.samples": "10000",
    "run.profile_points": "720",
    "run.p_cutoff_factors": "5, 10, 20, 40",
    "run.p_nodes": "64",
    "run.full_2d": "true",
    "run.kind": "enhanced",
    "run.q0": "0.0",
    "run.p0": "1.0",
    "run.dt": "auto",
    "run.steps": "1000",
    "run.total_time": "auto",
    "run.p_grid": "-3, 3, 25",
    "run.q_points": "73",
    "run.seed": "0",
    "output.dir": "circleq-out",
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        entries[key] = value
    return entries


@dataclass
class RunConfig:
    """Validated run parameters; every accessor names the offending key."""

    entries: dict

    @classmethod
    def load(cls, path: str | None, overrides=()) -> "RunConfig":
        entries = dict(_DEFAULTS)
        if path is not None:
            entries.update(parse_config_text(Path(path).read_text(), source=path))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            entries.update(parse_config_text(item, source="--set"))
        cfg = cls(entries)
        cfg.validate()
        return cfg

    def _float(self, key: str) -> float:
        try:
            value = float(self.entries[key])
        except ValueError:
            raise ConfigError(f"'{key}': not a number: {self.entries[key]!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"'{key}': not finite: {self.entries[key]!r}")
        return value

    def _int(self, key: str) -> int:
        try:
            return int(self.entries[key])
        except ValueError:
            raise ConfigError(f"'{key}': not an integer: {self.entries[key]!r}") from None

    def _float_list(self, key: str) -> list:
        raw = self.entries[key].strip()
        if not raw:
            return []
        try:
            values = [float(part) for part in raw.split(",")]
        except ValueError:
            raise ConfigError(f"'{key}': not a comma list of numbers: {raw!r}") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"'{key}': not all finite: {raw!r}")
        return values

    def _auto_or(self, key: str, kind):
        raw = self.entries[key].strip().lower()
        if raw == "auto":
            return None
        return self._int(key) if kind is int else self._float(key)

    def _bool(self, key: str) -> bool:
        raw = self.entries[key].strip().lower()
        if raw in ("true", "yes", "1", "on"):
            return True
        if raw in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"'{key}': not a boolean: {self.entries[key]!r}")

    def validate(self):
        try:
            self.spec()
            self.potential()
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"model parameters rejected: {exc}") from exc
        if self._int("run.grid_nodes") < 16 or self._int("run.grid_nodes") % 2:
            raise ConfigError("'run.grid_nodes': must be even and >= 16")
        if self._int("run.steps") < 1:
            raise ConfigError("'run.steps': must be >= 1")
        if self._int("run.p_nodes") < 64:
            raise ConfigError("'run.p_nodes': must be >= 64")
        if not self._float_list("run.p_cutoff_factors"):
            raise ConfigError("'run.p_cutoff_factors': must be nonempty")
        if self.entries["run.kind"] not in ("classical", "enhanced", "quantum"):
            raise ConfigError("'run.kind': must be classical, enhanced or quantum")
        grid = self._float_list("run.p_grid")
        if len(grid) != 3 or grid[0] >= grid[1] or int(grid[2]) < 2:
            raise ConfigError("'run.p_grid': expected 'min, max, count>=2'")

    # model objects -----------------------------------------------------
    def spec(self) -> FiducialSpec:
        return FiducialSpec(
            r=self._float("model.r"),
            alpha=self._float("model.alpha"),
            hbar=self._float("model.hbar"),
        )

    def potential(self) -> TrigPotential:
        return TrigPotential(
            a0=self._float("model.potential.a0"),
            a=tuple(self._float_list("model.potential.a")),
            b=tuple(self._float_list("model.potential.b")),
        )

    def grid(self) -> QuadratureGrid:
        return QuadratureGrid.make(self._int("run.grid_nodes"))

    def support(self) -> int:
        """Half-width of the model's default lattice (fiducial support plus
        potential bandwidth), refused past ``MAX_LATTICE_DIM`` slots before
        any Bessel sequence or array of that size is built."""
        spec = self.spec()
        try:
            support = default_cutoff(spec.localization, self.potential().degree)
        except OverflowError:  # r/hbar past the float range
            support = math.inf
        if support > _MAX_CUTOFF:
            raise ConfigError(
                f"'model.r' / 'model.hbar': r/hbar = {spec.localization:.6g} needs a "
                f"lattice wider than MAX_LATTICE_DIM = {MAX_LATTICE_DIM} slots"
            )
        return support

    def basis(self) -> TwistedBasis:
        spec, support = self.spec(), self.support()
        cutoff = self._auto_or("run.cutoff", int)
        if cutoff is None:
            cutoff = support
        elif not 1 <= cutoff <= _MAX_CUTOFF:
            raise ConfigError(f"'run.cutoff': must be auto or between 1 and {_MAX_CUTOFF}")
        return TwistedBasis(spec.alpha, spec.hbar, cutoff)

    def dt(self) -> float:
        value = self._auto_or("run.dt", float)
        if value is None:
            scale = max(1.0, self.potential().coefficient_scale())
            value = 0.01 / math.sqrt(scale)
        if value <= 0.0:
            raise ConfigError("'run.dt': must be > 0")
        return value

    def outdir(self) -> Path:
        return Path(os.environ.get(OUTDIR_ENV, self.entries["output.dir"]))


# CSV emission ---------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write(path: Path, text: str) -> Path:
    # the output directory appears with the first file: commands read and
    # validate every key before writing, so a rejected config leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_csv(path: Path, name: str, columns, rows):
    lines = [f"# schema: circleq/{name} {SCHEMA_VERSION}"]
    lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return _write(path, "\n".join(lines) + "\n")


_PLOT_PRELUDE = """\
#!/usr/bin/env python3
# Generated plotting companion; reads the CSV files next to it.
import numpy as np
import matplotlib.pyplot as plt


def load(name):
    # two comment lines (schema, timestamp) precede the column header
    return np.genfromtxt(name, delimiter=",", names=True, skip_header=2)
"""


def write_plot_script(path: Path, body: str):
    return _write(path, _PLOT_PRELUDE + body)


# subcommands ----------------------------------------------------------


def cmd_fiducial(cfg: RunConfig) -> list:
    spec = cfg.spec()
    outdir = cfg.outdir()
    points = cfg._int("run.profile_points")
    harmonic = cfg._auto_or("run.max_harmonic", int)
    if harmonic is None:
        harmonic = max(cfg.potential().degree, 4)
    samples = cfg._int("run.samples")
    basis = cfg.basis()
    written = []

    theta = -math.pi + 2.0 * math.pi * np.arange(points) / points
    amp = evaluate(spec, theta)
    peak = normalization(spec)
    z = spec.localization
    gauss = peak**2 * np.exp(-z * theta * theta)
    upper = math.exp(z * (math.pi**2 - 4.0)) * gauss if z > 0 else gauss
    rows = zip(theta, np.abs(amp) ** 2, amp.real, amp.imag, upper, gauss)
    written.append(
        write_csv(
            outdir / "fiducial_profile.csv",
            "fiducial-profile",
            ["theta", "density", "re", "im", "upper_envelope", "lower_envelope"],
            rows,
        )
    )

    mom = moments(spec, max_harmonic=harmonic, grid=cfg.grid())
    envelope = gaussian_bound_check(spec, samples) if spec.r > 0 else None
    written.append(
        write_csv(
            outdir / "fiducial_moments.csv",
            "fiducial-moments",
            [
                "r", "alpha", "hbar", "mean_q", "mean_p", "var_p",
                "envelope_ok", "envelope_upper_margin", "envelope_lower_margin",
            ],
            [[
                spec.r, spec.alpha, spec.hbar, mom.mean_q, mom.mean_p, mom.var_p,
                int(envelope.passed) if envelope else 1,
                envelope.upper_margin if envelope else 0.0,
                envelope.lower_margin if envelope else 0.0,
            ]],
        )
    )
    written.append(
        write_csv(
            outdir / "fiducial_attenuation.csv",
            "fiducial-attenuation",
            ["harmonic", "cos_moment"],
            list(enumerate(mom.cos_moments)),
        )
    )

    coeffs = momentum_coefficients(spec, basis)
    written.append(
        write_csv(
            outdir / "fiducial_coefficients.csv",
            "fiducial-coefficients",
            ["n", "momentum", "coefficient"],
            zip(basis.n_values(), basis.momenta(), coeffs.coeffs.real),
        )
    )

    written.append(
        write_plot_script(
            outdir / "plot_fiducial.py",
            """
profile = load("fiducial_profile.csv")
fig, ax = plt.subplots()
ax.semilogy(profile["theta"], profile["density"], label="|eta|^2")
ax.semilogy(profile["theta"], profile["upper_envelope"], "--", label="upper Gaussian")
ax.semilogy(profile["theta"], profile["lower_envelope"], ":", label="lower Gaussian")
ax.set_xlabel("theta"); ax.set_ylabel("density"); ax.legend()
fig.savefig("fiducial_profile.png", dpi=150)
""",
        )
    )
    return written


def cmd_unity(cfg: RunConfig) -> list:
    spec = cfg.spec()
    outdir = cfg.outdir()
    basis = cfg.basis()
    scale = math.sqrt(spec.hbar * max(spec.r, spec.hbar))
    interior = np.abs(basis.n_values()) <= max(spec.localization, 1.0)
    rows = []
    for factor in cfg._float_list("run.p_cutoff_factors"):
        report = verify_unity(
            spec,
            basis,
            p_cutoff=factor * scale,
            p_nodes=cfg._int("run.p_nodes"),
            full_2d=cfg._bool("run.full_2d"),
        )
        interior_defect = float(np.max(np.abs(report.diag_entries[interior] - 1.0)))
        rows.append([
            report.p_cutoff,
            report.quadrature_meta["p_nodes"],
            report.diag_defect,
            interior_defect,
            report.offdiag_defect,
        ])
    written = [
        write_csv(
            outdir / "unity_defects.csv",
            "unity-defects",
            ["p_cutoff", "p_nodes", "diag_defect", "interior_diag_defect", "offdiag_defect"],
            rows,
        )
    ]
    written.append(
        write_plot_script(
            outdir / "plot_unity.py",
            """
defects = load("unity_defects.csv")
fig, ax = plt.subplots()
ax.loglog(defects["p_cutoff"], defects["interior_diag_defect"], "o-", label="interior diagonal")
ax.loglog(defects["p_cutoff"], np.maximum(defects["offdiag_defect"], 1e-18), "s-", label="off-diagonal")
ax.set_xlabel("momentum cutoff"); ax.set_ylabel("defect"); ax.legend()
fig.savefig("unity_defects.png", dpi=150)
""",
        )
    )
    return written


def cmd_hamiltonian(cfg: RunConfig) -> list:
    spec = cfg.spec()
    potential = cfg.potential()
    model = EnhancedHamiltonian.build(potential, spec)
    outdir = cfg.outdir()
    p_min, p_max, p_count = cfg._float_list("run.p_grid")
    p_axis = np.linspace(p_min, p_max, int(p_count))
    q_count = cfg._int("run.q_points")
    q_axis = -math.pi + 2.0 * math.pi * np.arange(q_count) / q_count
    rows = []
    for p in p_axis:
        for q in q_axis:
            h_cs = enhanced_hamiltonian(model, p, q)
            h_shifted = enhanced_hamiltonian(model, canonical_shift(p, spec), q)
            h_c = classical_hamiltonian(potential, p, q)
            rows.append([p, q, h_cs, h_shifted, h_c, h_shifted - h_c - model.kinetic_offset])
    written = [
        write_csv(
            outdir / "hamiltonian_grid.csv",
            "hamiltonian-grid",
            ["p", "q", "h_coherent", "h_coherent_shifted", "h_classical", "residual"],
            rows,
        )
    ]
    written.append(
        write_csv(
            outdir / "hamiltonian_meta.csv",
            "hamiltonian-meta",
            ["kinetic_offset"] + [f"rho_{n}" for n in range(1, potential.degree + 1)],
            [[model.kinetic_offset, *model.attenuation]],
        )
    )
    written.append(
        write_plot_script(
            outdir / "plot_hamiltonian.py",
            """
grid = load("hamiltonian_grid.csv")
fig, ax = plt.subplots()
sc = ax.tricontourf(grid["q"], grid["p"], grid["h_coherent"], levels=31)
fig.colorbar(sc, ax=ax, label="H(p, q)")
ax.set_xlabel("q"); ax.set_ylabel("p")
fig.savefig("hamiltonian_grid.png", dpi=150)
""",
        )
    )
    return written


def _trajectory_rows(traj):
    return zip(traj.times, traj.q, traj.q_unwrapped, traj.p, traj.energies)


_TRAJ_COLUMNS = ["t", "q", "q_unwrapped", "p", "energy"]


def _comparison_basis(model: EnhancedHamiltonian, label: CoherentLabel) -> TwistedBasis:
    try:
        return comparison_basis(model, label)
    except ValueError as exc:
        raise ConfigError(f"'run.p0': {exc}") from None


def cmd_evolve(cfg: RunConfig) -> list:
    spec = cfg.spec()
    kind = cfg.entries["run.kind"]
    if kind == "quantum":
        cfg.support()  # before the model's Bessel sequences at r/hbar
    model = EnhancedHamiltonian.build(cfg.potential(), spec)
    outdir = cfg.outdir()
    dt, steps = cfg.dt(), cfg._int("run.steps")
    q0, p0 = cfg._float("run.q0"), cfg._float("run.p0")
    if kind in ("classical", "enhanced"):
        traj = evolve(kind, model, PhasePoint.start(q0, p0), dt, steps)
        written = [
            write_csv(outdir / f"trajectory_{kind}.csv", f"trajectory-{kind}",
                      _TRAJ_COLUMNS, _trajectory_rows(traj))
        ]
        plot_target = f"trajectory_{kind}.csv"
    else:
        label = CoherentLabel(p=p0, q=q0)
        basis = _comparison_basis(model, label)
        state = coherent_state(label, spec, basis).normalized()
        ham = build_hamiltonian(model.potential, basis)
        trace = evolve_quantum(ham, state, dt, steps)
        written = [
            write_csv(
                outdir / "trajectory_quantum.csv",
                "trajectory-quantum",
                ["t", "cos_q", "sin_q", "mean_p", "norm", "energy"],
                zip(trace.times, trace.cos_q, trace.sin_q, trace.mean_p, trace.norm, trace.energy),
            )
        ]
        plot_target = "trajectory_quantum.csv"
    written.append(
        write_plot_script(
            outdir / "plot_evolve.py",
            f"""
traj = load("{plot_target}")
fig, axes = plt.subplots(2, 1, sharex=True)
names = traj.dtype.names
axes[0].plot(traj["t"], traj[names[1]], label=names[1])
axes[1].plot(traj["t"], traj["energy"], label="energy")
for ax in axes: ax.legend()
axes[1].set_xlabel("t")
fig.savefig("trajectory.png", dpi=150)
""",
        )
    )
    return written


def cmd_compare(cfg: RunConfig) -> list:
    spec = cfg.spec()
    cfg.support()  # before the model's Bessel sequences at r/hbar
    model = EnhancedHamiltonian.build(cfg.potential(), spec)
    outdir = cfg.outdir()
    dt = cfg.dt()
    total = cfg._auto_or("run.total_time", float)
    if total is None:
        total = dt * cfg._int("run.steps")
    q0, p0 = cfg._float("run.q0"), cfg._float("run.p0")
    label = CoherentLabel(p=p0, q=q0)
    basis = _comparison_basis(model, label)

    report = compare_restricted(model, label, total_time=total, dt=dt, basis=basis)
    steps = len(report.times) - 1
    classical = evolve("classical", model, PhasePoint.start(q0, p0), dt, steps)

    written = [
        write_csv(outdir / "compare_classical.csv", "trajectory-classical",
                  _TRAJ_COLUMNS, _trajectory_rows(classical)),
        write_csv(outdir / "compare_enhanced.csv", "trajectory-enhanced",
                  _TRAJ_COLUMNS, _trajectory_rows(report.enhanced)),
        write_csv(
            outdir / "compare_quantum.csv",
            "trajectory-quantum",
            ["t", "cos_q", "sin_q", "mean_p", "norm", "energy"],
            zip(
                report.quantum.times, report.quantum.cos_q, report.quantum.sin_q,
                report.quantum.mean_p, report.quantum.norm, report.quantum.energy,
            ),
        ),
        write_csv(
            outdir / "compare_deviation.csv",
            "compare-deviation",
            ["t", "momentum_deviation", "phase_deviation", "coherence"],
            zip(report.times, report.momentum_deviation, report.phase_deviation, report.coherence),
        ),
        write_csv(
            outdir / "compare_summary.csv",
            "compare-summary",
            ["max_momentum_deviation", "max_phase_deviation", "ehrenfest_window"],
            [[
                float(np.max(report.momentum_deviation)),
                float(np.max(report.phase_deviation)),
                report.ehrenfest_window,
            ]],
        ),
    ]
    written.append(
        write_plot_script(
            outdir / "plot_compare.py",
            """
enh = load("compare_enhanced.csv")
cla = load("compare_classical.csv")
qua = load("compare_quantum.csv")
dev = load("compare_deviation.csv")
fig, axes = plt.subplots(3, 1, sharex=True, figsize=(7, 9))
axes[0].plot(cla["t"], np.cos(cla["q"]), label="classical cos q")
axes[0].plot(enh["t"], np.cos(enh["q"]), "--", label="enhanced cos q")
axes[0].plot(qua["t"], qua["cos_q"], ":", label="quantum <cos Q>")
axes[0].legend()
axes[1].plot(cla["t"], cla["p"], label="classical p")
axes[1].plot(enh["t"], enh["p"], "--", label="enhanced p")
axes[1].plot(qua["t"], qua["mean_p"], ":", label="quantum <P>")
axes[1].legend()
axes[2].semilogy(dev["t"], np.maximum(dev["phase_deviation"], 1e-18), label="phase deviation")
axes[2].semilogy(dev["t"], np.maximum(dev["momentum_deviation"], 1e-18), label="momentum deviation")
axes[2].legend(); axes[2].set_xlabel("t")
fig.savefig("compare.png", dpi=150)
""",
        )
    )
    return written


def _selftest_checks(cfg: RunConfig):
    """Fast battery of the package's numerical contracts."""
    rng = np.random.default_rng(cfg._int("run.seed"))
    grid = QuadratureGrid.make(256)

    def check_quadrature():
        value = integrate_periodic(np.exp(2.0 * np.cos(grid.nodes)), grid)
        return abs(value - 2.0 * math.pi * bessel_i(0, 2.0)) < 1e-10

    def check_round_trip():
        basis = TwistedBasis(0.3, 1.0, 20)
        coeffs = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        state = MomentumState(basis, coeffs).normalized()
        back = analyze(synthesize(state, grid), basis)
        return float(np.max(np.abs(back.coeffs - state.coeffs))) < 1e-12

    def check_centering():
        for r in (0.5, 2.0, 10.0):
            for alpha in (0.0, 0.3, 0.9):
                mom = moments(FiducialSpec(r=r, alpha=alpha))
                if abs(mom.mean_q) > 1e-9 or abs(mom.mean_p - alpha) > 1e-9:
                    return False
        return True

    def check_boundary():
        spec = FiducialSpec(r=2.0, alpha=0.4)
        state = momentum_coefficients(spec, default_basis(spec))
        return check_boundary_phase(state) < 1e-12

    def check_unity_diag():
        spec = FiducialSpec(r=1.0, alpha=0.25)
        report = verify_unity(spec, TwistedBasis(0.25, 1.0, 8), p_cutoff=40.0)
        interior = np.abs(report.ns) <= 1
        return float(np.max(np.abs(report.diag_entries[interior] - 1.0))) < 1e-3

    def check_alpha_invariance():
        spec = FiducialSpec(r=2.0)
        model = EnhancedHamiltonian.build(TrigPotential.pendulum(), spec)
        dev = alpha_invariance_check(model, PhasePoint.start(0.4, 0.9), (0.0, 0.5), 0.01, 200)
        return dev < 1e-10

    def check_spectrum():
        basis = TwistedBasis(0.3, 1.0, 16)
        ham = build_hamiltonian(TrigPotential.free(), basis, validate=True)
        exact = np.sort(basis.momenta() ** 2)
        return float(np.max(np.abs(np.linalg.eigvalsh(ham.matrix) - exact))) < 1e-10

    return [
        ("periodic-quadrature", check_quadrature),
        ("lattice-round-trip", check_round_trip),
        ("fiducial-centering", check_centering),
        ("boundary-membership", check_boundary),
        ("unity-diagonal", check_unity_diag),
        ("alpha-invariance", check_alpha_invariance),
        ("free-spectrum", check_spectrum),
    ]


def cmd_selftest(cfg: RunConfig) -> list:
    failures = []
    for name, check in _selftest_checks(cfg):
        ok = bool(check())
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)
    if failures:
        raise ContractViolation("self-test failed: " + ", ".join(failures))
    return []


_COMMANDS = {
    "fiducial": cmd_fiducial,
    "unity": cmd_unity,
    "hamiltonian": cmd_hamiltonian,
    "evolve": cmd_evolve,
    "compare": cmd_compare,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleq",
        description="circle coherent-state quantization toolkit",
    )
    parser.add_argument("--version", action="version", version=f"circleq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", "-c", default=None, help="path to a key = value config file")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a single config key",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        written = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolation, ResolutionError) as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
