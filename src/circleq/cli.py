"""Batch front-end: config parsing, command dispatch, CSV emission and
plot-script generation.

Configuration grammar
---------------------
Flat ``key = value`` lines with dotted section prefixes; ``#`` starts a
comment, blank lines are ignored, later assignments win.  No positional
arguments beyond the subcommand; a file is passed with ``--config`` and
single keys are overridden with ``--set key=value`` (repeatable).
Every key is checked before any command runs, read or not; an interval
bounds a number or each list entry, ``(0`` starts at the smallest normal
double, and ``MAX_ROWS`` = {max_rows}:

{key_table}

Exit codes: 0 success, 1 configuration error, 2 numerical-contract
violation, 3 I/O error.

Outputs are CSV only, one column per array, integers as integers and
floats to 17 significant digits, plus a generated matplotlib script per
command; every column is checked finite before any file is written (exit
2 otherwise), and reruns with the same config and seed are byte-identical
except for the ``# generated:`` header line.
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
from .coherent import (
    EDGE_WEIGHT_LIMIT,
    CoherentLabel,
    coherent_state,
    legendre_node_count,
    verify_unity,
)
from .dynamics import MAX_STABLE_STEP, PhasePoint, alpha_invariance_check, evolve, max_stable_step
from .enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    canonical_shift,
    classical_hamiltonian,
    enhanced_hamiltonian,
)
from .fiducial import (
    EnvelopeCheck,
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
# most time steps, samples or table rows any key may ask for
MAX_ROWS = 1_000_000
# largest lattice half-width N any command builds
_MAX_CUTOFF = (MAX_LATTICE_DIM - 1) // 2
# least value of a quantity that must be > 0: the smallest normal double
_TINY = sys.float_info.min
_FINITE = (-math.inf, math.inf, False)


class ConfigError(ValueError):
    """Bad key, unparsable value, or out-of-range parameter."""


class ContractViolation(RuntimeError):
    """A numerical invariant the package guarantees failed to hold."""


# (key, default, kind, bounds, meaning): the whole input format.  bounds
# is (least, most, auto allowed), inclusive, for a number or each entry of
# a float list, the values of a choice, and None for a bool or a path.
# Quadrature nodes share the lattice's cap: P nodes solve a dense P x P
# eigenproblem.
_KEYS = (
    ("model.hbar", "1.0", "float", (_TINY, 1e100, False),
     "action scale; the cap keeps lattice energies (hbar N)^2 finite"),
    ("model.alpha", "0.0", "float", _FINITE, "twist of the boundary condition, reduced mod 1"),
    ("model.r", "1.0", "float", (0.0, math.inf, False), "fiducial concentration, action units"),
    ("model.potential.a0", "0.0", "float", _FINITE, "constant potential term"),
    ("model.potential.a", "", "float list", _FINITE, "cos coefficients a_1..a_m"),
    ("model.potential.b", "", "float list", _FINITE, "sin coefficients b_1..b_m"),
    ("run.grid_nodes", "512", "int", (16, MAX_ROWS, False), "angular quadrature nodes, even"),
    ("run.cutoff", "auto", "int", (1, _MAX_CUTOFF, True), "lattice half-width N"),
    ("run.max_harmonic", "auto", "int", (0, _MAX_CUTOFF, True), "harmonics in ``fiducial``"),
    ("run.samples", "10000", "int", (2, MAX_ROWS, False), "sample count for the envelope check"),
    ("run.profile_points", "720", "int", (1, MAX_ROWS, False), "rows in the fiducial profile"),
    ("run.p_cutoff_factors", "5, 10, 20, 40", "float list", (_TINY, MAX_LATTICE_DIM, False),
     f"nonempty; cutoffs in units of sqrt(hbar max(r, hbar)), <= {MAX_LATTICE_DIM} nodes each"),
    ("run.p_nodes", "64", "int", (64, MAX_LATTICE_DIM, False), "minimum momentum quadrature nodes"),
    ("run.full_2d", "true", "bool", None, "literal 2-D unity quadrature"),
    ("run.kind", "enhanced", "choice", ("classical", "enhanced", "quantum"), "``evolve`` flavor"),
    ("run.q0", "0.0", "float", _FINITE, "initial angle"),
    ("run.p0", "1.0", "float", (-1e150, 1e150, False), "initial momentum; p0^2 stays finite"),
    ("run.dt", "auto", "float", (_TINY, 1e150, True),
     f"time step; leapfrog flows need <= {MAX_STABLE_STEP} / force scale"),
    ("run.steps", "1000", "int", (1, MAX_ROWS, False), "step count"),
    ("run.total_time", "auto", "float", (_TINY, 1e150, True),
     f"``compare`` horizon, 1 to {MAX_ROWS} steps of dt; overrides steps"),
    ("run.p_grid", "-3, 3, 25", "float list", (-1e150, 1e150, False),
     "``hamiltonian`` momentum axis: min < max, count an integer >= 2"),
    ("run.q_points", "73", "int", (1, MAX_ROWS, False),
     f"``hamiltonian`` angle axis point count; times the p count at most {MAX_ROWS}"),
    ("run.seed", "0", "int", (0, math.inf, False), "seed for randomized self-checks"),
    ("output.dir", "circleq-out", "path", None,
     f"output directory; the environment variable {OUTDIR_ENV} overrides it"),
)
_DEFAULTS = {key: default for key, default, *_ in _KEYS}


def _span(kind: str, bounds) -> str:
    """The values a key accepts, as the key table shows them."""
    if kind == "choice":
        return "|".join(bounds)
    if bounds is None:
        return "true|false" if kind == "bool" else "nonempty path"
    lo, hi, auto = bounds
    left = "(0" if lo == _TINY else f"({lo:.15g}" if lo == -math.inf else f"[{lo:.15g}"
    right = f"{hi:.15g})" if hi == math.inf else f"{hi:.15g}]"
    return f"{left}, {right}" + (" or auto" if auto else "")


def _key_table() -> str:
    rule = "=" * 20 + "  " + "=" * 55
    lines = [rule, f"{'key':<22}range; meaning (default)", rule]
    for key, default, kind, bounds, meaning in _KEYS:
        first, *more = textwrap.wrap(f"{_span(kind, bounds)}; {meaning} ({default or 'empty'})", 55)
        lines += [f"{key:<22}{first}"] + [" " * 22 + line for line in more]
    return "\n".join(lines + [rule])


if __doc__:  # None under python -OO
    __doc__ = __doc__.format(key_table=_key_table(), max_rows=MAX_ROWS)


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


_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def _parse(key: str, raw: str, kind: str, bounds):
    """One key's typed value: None for ``auto``, a tuple for a list."""
    text = raw.strip()
    if kind == "path":
        if not text:  # would write into the working directory
            raise ConfigError(f"'{key}': must not be empty")
        return text
    if kind in ("bool", "choice"):
        accepted = _BOOLS if kind == "bool" else {name: name for name in bounds}
        if text.lower() not in accepted:
            raise ConfigError(f"'{key}': expected {_span(kind, bounds)}, got {raw!r}")
        return accepted[text.lower()]
    if bounds[2] and text.lower() == "auto":
        return None
    number, noun = (int, "an integer") if kind == "int" else (float, "a number")
    parts = (text.split(",") if text else []) if kind == "float list" else [text]
    try:
        values = [number(part) for part in parts]
    except ValueError:
        raise ConfigError(f"'{key}': not {noun}: {raw!r}") from None
    for value in values:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"'{key}': not finite: {raw!r}")
        if not bounds[0] <= value <= bounds[1]:
            raise ConfigError(f"'{key}': {value} is outside {_span(kind, bounds)}")
    return tuple(values) if kind == "float list" else values[0]


def _require(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


@dataclass
class RunConfig:
    """One command's typed run parameters (``cfg[key]``, ``auto`` resolved
    where read) and the objects it needs, all checked by :meth:`load`."""

    values: dict
    spec: FiducialSpec
    potential: TrigPotential
    model: EnhancedHamiltonian | None = None
    basis: TwistedBasis | None = None
    p_cutoffs: tuple = ()

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def load(cls, command: str, path: str | None = None, overrides=()) -> "RunConfig":
        entries = dict(_DEFAULTS)
        if path is not None:
            entries.update(parse_config_text(Path(path).read_text(), source=path))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            entries.update(parse_config_text(item, source="--set"))
        v = {key: _parse(key, entries[key], *row) for key, _, *row, _ in _KEYS}
        spec = FiducialSpec(v["model.r"], v["model.alpha"], v["model.hbar"])
        potential = TrigPotential(*(v[f"model.potential.{c}"] for c in ("a0", "a", "b")))
        cfg = cls(v, spec, potential)
        z, degree = spec.localization, potential.degree  # z is inf past the float range
        job = f"{command} {v['run.kind']}" if command == "evolve" else command
        grid = v["run.p_grid"]
        if v["run.max_harmonic"] is None:
            v["run.max_harmonic"] = max(degree, 4)
        v["output.dir"] = Path(os.environ.get(OUTDIR_ENV) or v["output.dir"])

        # the rules between keys, in order; each may assume the ones before
        _require(v["run.grid_nodes"] % 2 == 0, "'run.grid_nodes': must be even")
        _require(
            len(grid) == 3 and grid[0] < grid[1] and grid[2] == int(grid[2])
            and 2 <= grid[2] <= MAX_ROWS // v["run.q_points"],
            "'run.p_grid' / 'run.q_points': expected 'min, max, count' with min < max "
            f"and an integer count from 2 to {MAX_ROWS} / run.q_points",
        )
        _require(v["run.p_cutoff_factors"], "'run.p_cutoff_factors': must be nonempty")
        if job in ("fiducial", "unity", "compare", "evolve quantum"):
            # the fiducial support and the potential bandwidth
            support = default_cutoff(z, degree) if z < MAX_LATTICE_DIM else math.inf
            _require(support <= _MAX_CUTOFF, f"'model.r' / 'model.hbar': r/hbar = {z:.6g} needs "
                     f"a lattice wider than MAX_LATTICE_DIM = {MAX_LATTICE_DIM} slots")
            cfg.basis = TwistedBasis(spec.alpha, spec.hbar, v["run.cutoff"] or support)
        if command == "fiducial":  # its upper envelope peaks near e^{z (pi^2 - 4)}
            _require(z * (math.pi**2 - 4.0) <= 700.0, f"'model.r' / 'model.hbar': r/hbar = "
                     f"{z:.6g} puts the fiducial's upper envelope past the double range")
        if command == "unity":
            scale = spec.hbar * math.sqrt(max(z, 1.0))  # sqrt(hbar max(r, hbar)), no underflow
            cfg.p_cutoffs = tuple(factor * scale for factor in v["run.p_cutoff_factors"])
            nodes = legendre_node_count(max(cfg.p_cutoffs), spec.hbar, v["run.p_nodes"])
            _require(nodes <= MAX_LATTICE_DIM, f"'run.p_cutoff_factors': the largest cutoff "
                     f"needs {nodes} quadrature nodes, more than {MAX_LATTICE_DIM}")
        if command in ("hamiltonian", "evolve", "compare"):
            try:  # refused before a Bessel sequence past the recurrence's limit is built
                cfg.model = EnhancedHamiltonian.build(potential, spec)
            except ValueError as exc:
                raise ConfigError(f"'model.r' / 'model.hbar': {exc}") from None
        if job in ("compare", "evolve quantum"):
            # the lattice holds the boost too, and run.cutoff does not apply
            try:
                cfg.basis = comparison_basis(cfg.model, CoherentLabel(v["run.p0"], v["run.q0"]))
            except ValueError as exc:
                raise ConfigError(f"'run.p0' / 'model.hbar': {exc}") from None
        if command in ("evolve", "compare"):
            leapfrog = {"compare": ("classical", "enhanced"), "evolve quantum": ()}
            flows = leapfrog.get(job, (v["run.kind"],))
            limit = min((max_stable_step(flow, cfg.model) for flow in flows), default=math.inf)
            if v["run.dt"] is None:
                scale = max(1.0, potential.coefficient_scale())
                v["run.dt"] = min(0.01 / math.sqrt(scale), limit)
            _require(0.0 < v["run.dt"] <= limit, f"'run.dt': {v['run.dt']:.6g} is not in (0, "
                     f"{limit:.6g}], set by 'model.potential.a' / 'model.potential.b'")
        if command == "compare":
            if v["run.total_time"] is None:
                v["run.total_time"] = v["run.dt"] * v["run.steps"]
            else:
                steps = v["run.total_time"] / v["run.dt"]
                _require(1.0 <= steps <= MAX_ROWS, f"'run.total_time': {steps:.6g} steps of "
                         f"run.dt, outside [1, {MAX_ROWS}]")
        return cfg


# CSV emission ---------------------------------------------------------


# rows formatted and written at a time; bounds the text held in memory
CSV_CHUNK_ROWS = 4096


def _open(path: Path):
    # the output directory appears with the first file: commands check
    # every key, and _emit every column, before writing, so a rejected run
    # leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def write_csv(path: Path, name: str, table: dict) -> Path:
    """Write ``{column: values}`` under a schema line, a timestamp and the
    column names; integer and bool columns as ``%d``, the rest with 17
    significant digits."""
    columns = [np.atleast_1d(values) for values in table.values()]
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
    with _open(path) as handle:
        handle.write(f"# schema: circleq/{name} {SCHEMA_VERSION}\n")
        handle.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
        handle.write(",".join(table) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = (c[start:start + CSV_CHUNK_ROWS].tolist() for c in columns)
            handle.write("".join(row % values for values in zip(*chunk)))
    return path


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
    with _open(path) as handle:
        handle.write(_PLOT_PRELUDE + body)
    return path


def _emit(outdir: Path, command: str, tables, plot_body) -> list:
    """Check that every column of every table ``(file, schema, {column:
    values})`` is finite, then write the tables in order and the plot
    script ``plot_<command>.py``."""
    for file, _, table in tables:
        for column, values in table.items():
            if not np.all(np.isfinite(values)):
                raise ContractViolation(f"{file}: column '{column}' is not finite")
    written = [write_csv(outdir / file, schema, table) for file, schema, table in tables]
    if plot_body is not None:
        written.append(write_plot_script(outdir / f"plot_{command}.py", plot_body))
    return written


def _trajectory_table(file: str, kind: str, traj):
    return file, f"trajectory-{kind}", {
        "t": traj.times, "q": traj.q, "q_unwrapped": traj.q_unwrapped, "p": traj.p,
        "energy": traj.energies,
    }


def _quantum_table(file: str, trace):
    return file, "trajectory-quantum", {
        "t": trace.times, "cos_q": trace.cos_q, "sin_q": trace.sin_q, "mean_p": trace.mean_p,
        "norm": trace.norm, "energy": trace.energy,
    }


# subcommands: each returns (CSV tables, plot script body) --------------


def cmd_fiducial(cfg: RunConfig):
    spec, basis, points = cfg.spec, cfg.basis, cfg["run.profile_points"]
    theta = -math.pi + 2.0 * math.pi * np.arange(points) / points
    amp = evaluate(spec, theta)
    peak = normalization(spec)
    z = spec.localization
    gauss = peak**2 * np.exp(-z * theta * theta)
    upper = math.exp(z * (math.pi**2 - 4.0)) * gauss if z > 0 else gauss
    grid = QuadratureGrid.make(cfg["run.grid_nodes"])
    mom = moments(spec, max_harmonic=cfg["run.max_harmonic"], grid=grid)
    no_envelope = EnvelopeCheck(True, None, 0.0, 0.0)  # r = 0 has no Gaussian envelope
    envelope = gaussian_bound_check(spec, cfg["run.samples"]) if spec.r > 0 else no_envelope
    coeffs = momentum_coefficients(spec, basis)
    tables = [
        ("fiducial_profile.csv", "fiducial-profile", {
            "theta": theta, "density": np.abs(amp) ** 2, "re": amp.real, "im": amp.imag,
            "upper_envelope": upper, "lower_envelope": gauss,
        }),
        ("fiducial_moments.csv", "fiducial-moments", {
            "r": spec.r, "alpha": spec.alpha, "hbar": spec.hbar,
            "mean_q": mom.mean_q, "mean_p": mom.mean_p, "var_p": mom.var_p,
            "envelope_ok": envelope.passed, "envelope_upper_margin": envelope.upper_margin,
            "envelope_lower_margin": envelope.lower_margin,
        }),
        ("fiducial_attenuation.csv", "fiducial-attenuation", {
            "harmonic": np.arange(len(mom.cos_moments)), "cos_moment": mom.cos_moments,
        }),
        ("fiducial_coefficients.csv", "fiducial-coefficients", {
            "n": basis.n_values(), "momentum": basis.momenta(), "coefficient": coeffs.coeffs.real,
        }),
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
    spec, basis = cfg.spec, cfg.basis
    interior = np.abs(basis.n_values()) <= max(spec.localization, 1.0)
    reports = [
        verify_unity(spec, basis, p_cutoff, p_nodes=cfg["run.p_nodes"], full_2d=cfg["run.full_2d"])
        for p_cutoff in cfg.p_cutoffs
    ]
    return [("unity_defects.csv", "unity-defects", {
        "p_cutoff": [report.p_cutoff for report in reports],
        "p_nodes": [report.quadrature_meta["p_nodes"] for report in reports],
        "diag_defect": [report.diag_defect for report in reports],
        "interior_diag_defect": [
            np.max(np.abs(report.diag_entries[interior] - 1.0)) for report in reports
        ],
        "offdiag_defect": [report.offdiag_defect for report in reports],
    })], """
defects = load("unity_defects.csv")
fig, ax = plt.subplots()
ax.loglog(defects["p_cutoff"], defects["interior_diag_defect"], "o-", label="interior diagonal")
ax.loglog(defects["p_cutoff"], np.maximum(defects["offdiag_defect"], 1e-18), "s-", label="off-diagonal")
ax.set_xlabel("momentum cutoff"); ax.set_ylabel("defect"); ax.legend()
fig.savefig("unity_defects.png", dpi=150)
"""


def cmd_hamiltonian(cfg: RunConfig):
    model, spec, potential = cfg.model, cfg.spec, cfg.potential
    p_min, p_max, p_count = cfg["run.p_grid"]
    p_axis = np.linspace(p_min, p_max, int(p_count))
    q_count = cfg["run.q_points"]
    q_axis = -math.pi + 2.0 * math.pi * np.arange(q_count) / q_count
    p, q = np.meshgrid(p_axis, q_axis, indexing="ij")  # rows: p outer, q inner
    h_cs = enhanced_hamiltonian(model, p, q)
    h_shifted = enhanced_hamiltonian(model, canonical_shift(p, spec), q)
    h_c = classical_hamiltonian(potential, p, q)
    residual = h_shifted - h_c - model.kinetic_offset
    tables = [
        ("hamiltonian_grid.csv", "hamiltonian-grid", {
            "p": p.ravel(), "q": q.ravel(), "h_coherent": h_cs.ravel(),
            "h_coherent_shifted": h_shifted.ravel(), "h_classical": h_c.ravel(),
            "residual": residual.ravel(),
        }),
        ("hamiltonian_meta.csv", "hamiltonian-meta", {
            "kinetic_offset": model.kinetic_offset,
            **{f"rho_{n}": rho for n, rho in enumerate(model.attenuation, start=1)},
        }),
    ]
    return tables, """
grid = load("hamiltonian_grid.csv")
fig, ax = plt.subplots()
sc = ax.tricontourf(grid["q"], grid["p"], grid["h_coherent"], levels=31)
fig.colorbar(sc, ax=ax, label="H(p, q)")
ax.set_xlabel("q"); ax.set_ylabel("p")
fig.savefig("hamiltonian_grid.png", dpi=150)
"""


def _fractional_boost(spec: FiducialSpec, p0: float) -> ContractViolation:
    # the lattice holds the boost, so only a fractional boost's tail leaks
    return ContractViolation(
        f"'run.p0' = {p0:.6g} is a fractional boost p0/hbar = {p0 / spec.hbar:.6g}; at "
        f"r/hbar = {spec.localization:.6g} ('model.r' / 'model.hbar') its tail falls off "
        f"only like 1/|n| and leaks more than {EDGE_WEIGHT_LIMIT:g} of the state past "
        "any lattice; use an integer p0/hbar or a larger r/hbar"
    )


def cmd_evolve(cfg: RunConfig):
    kind, model, basis = cfg["run.kind"], cfg.model, cfg.basis
    dt, steps, q0, p0 = cfg["run.dt"], cfg["run.steps"], cfg["run.q0"], cfg["run.p0"]
    if kind in ("classical", "enhanced"):
        traj = evolve(kind, model, PhasePoint.start(q0, p0), dt, steps)
        table = _trajectory_table(f"trajectory_{kind}.csv", kind, traj)
    else:
        try:
            state = coherent_state(CoherentLabel(p=p0, q=q0), model.spec, basis).normalized()
        except ResolutionError:
            raise _fractional_boost(model.spec, p0) from None
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
    model, dt, q0, p0 = cfg.model, cfg["run.dt"], cfg["run.q0"], cfg["run.p0"]
    label = CoherentLabel(p=p0, q=q0)
    try:  # the coherent state's leak is the only ResolutionError it raises
        report = compare_restricted(model, label, cfg["run.total_time"], dt, cfg.basis)
    except ResolutionError:
        raise _fractional_boost(model.spec, p0) from None
    steps = len(report.times) - 1
    classical = evolve("classical", model, PhasePoint.start(q0, p0), dt, steps)

    tables = [
        _trajectory_table("compare_classical.csv", "classical", classical),
        _trajectory_table("compare_enhanced.csv", "enhanced", report.enhanced),
        _quantum_table("compare_quantum.csv", report.quantum),
        ("compare_deviation.csv", "compare-deviation", {
            "t": report.times, "momentum_deviation": report.momentum_deviation,
            "phase_deviation": report.phase_deviation, "coherence": report.coherence,
        }),
        ("compare_summary.csv", "compare-summary", {
            "max_momentum_deviation": np.max(report.momentum_deviation),
            "max_phase_deviation": np.max(report.phase_deviation),
            "ehrenfest_window": report.ehrenfest_window,
        }),
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
    rng = np.random.default_rng(cfg["run.seed"])
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
        cfg = RunConfig.load(args.command, args.config, args.overrides)
        tables, plot_body = _COMMANDS[args.command](cfg)
        written = _emit(cfg["output.dir"], args.command, tables, plot_body)
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
