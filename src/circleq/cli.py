"""Batch front-end: config parsing, command dispatch, CSV emission and
plot-script generation.

Configuration grammar
---------------------
Flat ``key = value`` lines with dotted section prefixes; ``#`` starts a
comment, blank lines are ignored, later assignments win.  No positional
arguments beyond the subcommand; a file is passed with ``--config`` and
single keys are overridden with ``--set key=value`` (repeatable).
Every key, its meaning and its default:

{key_table}

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
import textwrap
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import CoherentLabel, coherent_state, verify_unity
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


# (key, default, meaning): the source of _DEFAULTS and of the key table
# in the module docstring
_KEYS = (
    ("model.hbar", "1.0", "action scale, > 0"),
    ("model.alpha", "0.0", "twist of the boundary condition, reduced mod 1"),
    ("model.r", "1.0", "fiducial concentration, >= 0, action units"),
    ("model.potential.a0", "0.0", "constant potential term"),
    ("model.potential.a", "", "comma list: cos coefficients a_1..a_m"),
    ("model.potential.b", "", "comma list: sin coefficients b_1..b_m"),
    ("run.grid_nodes", "512", "angular quadrature nodes, even, >= 16"),
    ("run.cutoff", "auto", f"lattice half-width N, 1..{_MAX_CUTOFF}, or ``auto``"),
    ("run.max_harmonic", "auto", "harmonics reported by ``fiducial``, or ``auto``"),
    ("run.samples", "10000", "sample count for the envelope check"),
    ("run.profile_points", "720", "rows in the fiducial profile table"),
    ("run.p_cutoff_factors", "5, 10, 20, 40",
     "comma list, momentum cutoffs in units of sqrt(hbar max(r, hbar))"),
    ("run.p_nodes", "64", "minimum momentum quadrature nodes, >= 64"),
    ("run.full_2d", "true", "literal 2-D unity quadrature, true/false"),
    ("run.kind", "enhanced", "``evolve`` flavor: classical|enhanced|quantum"),
    ("run.q0", "0.0", "initial angle"),
    ("run.p0", "1.0", "initial momentum"),
    ("run.dt", "auto", "time step, or ``auto``"),
    ("run.steps", "1000", "step count"),
    ("run.total_time", "auto", "horizon for ``compare``; overrides steps"),
    ("run.p_grid", "-3, 3, 25", "``hamiltonian`` momentum axis: min, max, count"),
    ("run.q_points", "73", "``hamiltonian`` angle axis point count"),
    ("run.seed", "0", "seed for randomized self-checks"),
    ("output.dir", "circleq-out",
     f"output directory; the environment variable {OUTDIR_ENV} overrides it"),
)
_DEFAULTS = {key: default for key, default, _ in _KEYS}


def _key_table() -> str:
    rule = "=" * 20 + "  " + "=" * 55
    lines = [rule, f"{'key':<22}meaning (default)", rule]
    for key, default, meaning in _KEYS:
        first, *more = textwrap.wrap(f"{meaning} ({default or 'empty'})", 55)
        lines += [f"{key:<22}{first}"] + [" " * 22 + line for line in more]
    return "\n".join(lines + [rule])


if __doc__:  # None under python -OO
    __doc__ = __doc__.format(key_table=_key_table())


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

    def model(self) -> EnhancedHamiltonian:
        try:
            return EnhancedHamiltonian.build(self.potential(), self.spec())
        except ValueError as exc:  # the Bessel order limit at huge r/hbar
            raise ConfigError(f"'model.r' / 'model.hbar': {exc}") from None

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


def _emit(outdir: Path, command: str, tables, plot_body) -> list:
    """Write a command's CSV tables, each ``(file, schema, columns, rows)``,
    in order, then its plot script ``plot_<command>.py``."""
    written = [
        write_csv(outdir / file, schema, columns, rows)
        for file, schema, columns, rows in tables
    ]
    if plot_body is not None:
        written.append(write_plot_script(outdir / f"plot_{command}.py", plot_body))
    return written


_TRAJ_COLUMNS = ["t", "q", "q_unwrapped", "p", "energy"]
_QUANTUM_COLUMNS = ["t", "cos_q", "sin_q", "mean_p", "norm", "energy"]


def _trajectory_table(file: str, kind: str, traj):
    rows = zip(traj.times, traj.q, traj.q_unwrapped, traj.p, traj.energies)
    return file, f"trajectory-{kind}", _TRAJ_COLUMNS, rows


def _quantum_table(file: str, trace):
    rows = zip(trace.times, trace.cos_q, trace.sin_q, trace.mean_p, trace.norm, trace.energy)
    return file, "trajectory-quantum", _QUANTUM_COLUMNS, rows


# subcommands: each returns (CSV tables, plot script body) --------------


def cmd_fiducial(cfg: RunConfig):
    spec = cfg.spec()
    points = cfg._int("run.profile_points")
    harmonic = cfg._auto_or("run.max_harmonic", int)
    if harmonic is None:
        harmonic = max(cfg.potential().degree, 4)
    samples = cfg._int("run.samples")
    basis = cfg.basis()

    theta = -math.pi + 2.0 * math.pi * np.arange(points) / points
    amp = evaluate(spec, theta)
    peak = normalization(spec)
    z = spec.localization
    gauss = peak**2 * np.exp(-z * theta * theta)
    upper = math.exp(z * (math.pi**2 - 4.0)) * gauss if z > 0 else gauss
    mom = moments(spec, max_harmonic=harmonic, grid=cfg.grid())
    envelope = gaussian_bound_check(spec, samples) if spec.r > 0 else None
    coeffs = momentum_coefficients(spec, basis)
    tables = [
        (
            "fiducial_profile.csv",
            "fiducial-profile",
            ["theta", "density", "re", "im", "upper_envelope", "lower_envelope"],
            zip(theta, np.abs(amp) ** 2, amp.real, amp.imag, upper, gauss),
        ),
        (
            "fiducial_moments.csv",
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
        ),
        (
            "fiducial_attenuation.csv",
            "fiducial-attenuation",
            ["harmonic", "cos_moment"],
            enumerate(mom.cos_moments),
        ),
        (
            "fiducial_coefficients.csv",
            "fiducial-coefficients",
            ["n", "momentum", "coefficient"],
            zip(basis.n_values(), basis.momenta(), coeffs.coeffs.real),
        ),
    ]
    return tables, """
profile = load("fiducial_profile.csv")
fig, ax = plt.subplots()
ax.semilogy(profile["theta"], profile["density"], label="|eta|^2")
ax.semilogy(profile["theta"], profile["upper_envelope"], "--", label="upper Gaussian")
ax.semilogy(profile["theta"], profile["lower_envelope"], ":", label="lower Gaussian")
ax.set_xlabel("theta"); ax.set_ylabel("density"); ax.legend()
fig.savefig("fiducial_profile.png", dpi=150)
"""


def cmd_unity(cfg: RunConfig):
    spec = cfg.spec()
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
    columns = ["p_cutoff", "p_nodes", "diag_defect", "interior_diag_defect", "offdiag_defect"]
    return [("unity_defects.csv", "unity-defects", columns, rows)], """
defects = load("unity_defects.csv")
fig, ax = plt.subplots()
ax.loglog(defects["p_cutoff"], defects["interior_diag_defect"], "o-", label="interior diagonal")
ax.loglog(defects["p_cutoff"], np.maximum(defects["offdiag_defect"], 1e-18), "s-", label="off-diagonal")
ax.set_xlabel("momentum cutoff"); ax.set_ylabel("defect"); ax.legend()
fig.savefig("unity_defects.png", dpi=150)
"""


def cmd_hamiltonian(cfg: RunConfig):
    model = cfg.model()
    spec, potential = model.spec, model.potential
    p_min, p_max, p_count = cfg._float_list("run.p_grid")
    p_axis = np.linspace(p_min, p_max, int(p_count))
    q_count = cfg._int("run.q_points")
    q_axis = -math.pi + 2.0 * math.pi * np.arange(q_count) / q_count
    p, q = np.meshgrid(p_axis, q_axis, indexing="ij")  # rows: p outer, q inner
    h_cs = enhanced_hamiltonian(model, p, q)
    h_shifted = enhanced_hamiltonian(model, canonical_shift(p, spec), q)
    h_c = classical_hamiltonian(potential, p, q)
    residual = h_shifted - h_c - model.kinetic_offset
    grid = (p, q, h_cs, h_shifted, h_c, residual)
    tables = [
        (
            "hamiltonian_grid.csv",
            "hamiltonian-grid",
            ["p", "q", "h_coherent", "h_coherent_shifted", "h_classical", "residual"],
            zip(*(column.ravel() for column in grid)),
        ),
        (
            "hamiltonian_meta.csv",
            "hamiltonian-meta",
            ["kinetic_offset"] + [f"rho_{n}" for n in range(1, potential.degree + 1)],
            [[model.kinetic_offset, *model.attenuation]],
        ),
    ]
    return tables, """
grid = load("hamiltonian_grid.csv")
fig, ax = plt.subplots()
sc = ax.tricontourf(grid["q"], grid["p"], grid["h_coherent"], levels=31)
fig.colorbar(sc, ax=ax, label="H(p, q)")
ax.set_xlabel("q"); ax.set_ylabel("p")
fig.savefig("hamiltonian_grid.png", dpi=150)
"""


def _comparison_basis(model: EnhancedHamiltonian, label: CoherentLabel) -> TwistedBasis:
    try:
        return comparison_basis(model, label)
    except ValueError as exc:
        raise ConfigError(f"'run.p0': {exc}") from None


def cmd_evolve(cfg: RunConfig):
    kind = cfg.entries["run.kind"]
    if kind == "quantum":
        cfg.support()  # before the model's Bessel sequences at r/hbar
    model = cfg.model()
    dt, steps = cfg.dt(), cfg._int("run.steps")
    q0, p0 = cfg._float("run.q0"), cfg._float("run.p0")
    if kind in ("classical", "enhanced"):
        traj = evolve(kind, model, PhasePoint.start(q0, p0), dt, steps)
        table = _trajectory_table(f"trajectory_{kind}.csv", kind, traj)
    else:
        label = CoherentLabel(p=p0, q=q0)
        basis = _comparison_basis(model, label)
        state = coherent_state(label, model.spec, basis).normalized()
        ham = build_hamiltonian(model.potential, basis)
        table = _quantum_table("trajectory_quantum.csv", evolve_quantum(ham, state, dt, steps))
    return [table], f"""
traj = load("{table[0]}")
fig, axes = plt.subplots(2, 1, sharex=True)
names = traj.dtype.names
axes[0].plot(traj["t"], traj[names[1]], label=names[1])
axes[1].plot(traj["t"], traj["energy"], label="energy")
for ax in axes: ax.legend()
axes[1].set_xlabel("t")
fig.savefig("trajectory.png", dpi=150)
"""


def cmd_compare(cfg: RunConfig):
    cfg.support()  # before the model's Bessel sequences at r/hbar
    model = cfg.model()
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

    tables = [
        _trajectory_table("compare_classical.csv", "classical", classical),
        _trajectory_table("compare_enhanced.csv", "enhanced", report.enhanced),
        _quantum_table("compare_quantum.csv", report.quantum),
        (
            "compare_deviation.csv",
            "compare-deviation",
            ["t", "momentum_deviation", "phase_deviation", "coherence"],
            zip(report.times, report.momentum_deviation, report.phase_deviation, report.coherence),
        ),
        (
            "compare_summary.csv",
            "compare-summary",
            ["max_momentum_deviation", "max_phase_deviation", "ehrenfest_window"],
            [[
                float(np.max(report.momentum_deviation)),
                float(np.max(report.phase_deviation)),
                report.ehrenfest_window,
            ]],
        ),
    ]
    return tables, """
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
"""


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
        ham = build_hamiltonian(TrigPotential.free(), basis)
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


def cmd_selftest(cfg: RunConfig):
    failures = []
    for name, check in _selftest_checks(cfg):
        ok = bool(check())
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)
    if failures:
        raise ContractViolation("self-test failed: " + ", ".join(failures))
    return [], None


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
        tables, plot_body = _COMMANDS[args.command](cfg)
        written = _emit(cfg.outdir(), args.command, tables, plot_body)
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
