"""Batch front-end: config parsing, command dispatch, CSV emission and
plot-script generation.

Configuration grammar
---------------------
Flat ``key = value`` lines with dotted section prefixes; ``#`` starts a
comment, blank lines are ignored, later assignments win.  The command is
the only positional argument; a file is passed with ``--config`` and
single keys are overridden with ``--set key=value`` (repeatable).
Every key is checked before any command runs, read or not; an interval
bounds a number or each list entry, ``(0`` starts at the smallest normal
double, and ``MAX_ROWS`` = {max_rows}:

{key_table}

Exit codes: 0 success, 1 configuration error, 2 numerical-contract
violation, 3 I/O error.

Outputs are CSV only, one column per array, every value as ``%.17g``
(so the integers, all below 2^53, as integers), plus a generated
matplotlib script per command; every column is checked finite before any
file is written (exit 2 otherwise), and reruns with the same config are
byte-identical except for the ``# generated:`` header line.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import textwrap
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import EDGE_WEIGHT_LIMIT, coherent_state, legendre_node_count, verify_unity
from .dynamics import MAX_STABLE_STEP, evolve, max_stable_step
from .enhanced import (
    EnhancedHamiltonian,
    TrigPotential,
    canonical_shift,
    classical_hamiltonian,
    enhanced_hamiltonian,
)
from .fiducial import (
    FiducialSpec,
    attenuations,
    evaluate,
    moments,
    momentum_coefficients,
    normalization,
)
from .hilbert import (
    MAX_CUTOFF, MAX_LATTICE_DIM, ResolutionError, TwistedBasis, default_cutoff, wrap_angle,
)
from .qevolve import build_hamiltonian, compare_restricted, comparison_basis, evolve_quantum
from .specfun import ConvergenceError

OUTDIR_ENV = "CIRCLEQ_OUTDIR"
SCHEMA_VERSION = "v1"
# most time steps, samples or table rows any key may ask for
MAX_ROWS = 1_000_000
# least value of a quantity that must be > 0: the smallest normal double
_TINY = sys.float_info.min
_FINITE = (-math.inf, math.inf, False)


class ConfigError(ValueError):
    """Bad key, unparsable value, or out-of-range parameter."""


class ContractViolation(RuntimeError):
    """A numerical invariant the package guarantees failed to hold."""


# (key, default, kind, bounds, meaning): the whole input format.  bounds
# is (least, most, auto allowed), inclusive, for a number or each entry of
# a float list, the values of a choice, and None for a path.
# Quadrature nodes share the lattice's cap; placing P nodes takes O(P^2) time.
_KEYS = (
    ("model.hbar", "1.0", "float", (_TINY, 1e100, False),
     "action scale; the cap keeps lattice energies (hbar N)^2 finite"),
    ("model.alpha", "0.0", "float", _FINITE, "twist of the boundary condition, reduced mod 1"),
    ("model.r", "1.0", "float", (0.0, math.inf, False), "fiducial concentration, action units"),
    ("model.potential.a0", "0.0", "float", _FINITE, "constant potential term"),
    ("model.potential.a", "", "float list", _FINITE, "cos coefficients a_1..a_m"),
    ("model.potential.b", "", "float list", _FINITE, "sin coefficients b_1..b_m"),
    ("run.cutoff", "auto", "int", (1, MAX_CUTOFF, True),
     "``fiducial`` and ``unity`` lattice half-width N"),
    ("run.p_cutoff_factors", "5, 10, 20, 40", "float list", (_TINY, MAX_LATTICE_DIM, False),
     f"nonempty; cutoffs in units of sqrt(hbar max(r, hbar)), <= {MAX_LATTICE_DIM} nodes each"),
    ("run.kind", "enhanced", "choice", ("classical", "enhanced", "quantum"), "``evolve`` flavor"),
    ("run.q0", "0.0", "float", _FINITE, "initial angle"),
    ("run.p0", "1.0", "float", (-1e150, 1e150, False), "initial momentum; p0^2 stays finite"),
    ("run.dt", "auto", "float", (_TINY, 1e150, True),
     f"time step; leapfrog flows need <= {MAX_STABLE_STEP} / force scale"),
    ("run.total_time", "auto", "float", (_TINY, 1e150, True),
     f"``evolve`` and ``compare`` horizon, 1 to {MAX_ROWS} steps of dt; auto is 1000 steps"),
    ("run.p_grid", "-3, 3, 25", "float list", (-1e150, 1e150, False),
     "``hamiltonian`` momentum axis: min < max, count an integer >= 2"),
    ("run.q_points", "73", "int", (1, MAX_ROWS, False),
     f"``hamiltonian`` angle axis point count; times the p count at most {MAX_ROWS}"),
    ("output.dir", "circleq-out", "path", None,
     f"output directory; the environment variable {OUTDIR_ENV} overrides it"),
)
_DEFAULTS = {key: default for key, default, *_ in _KEYS}


def _span(kind: str, bounds) -> str:
    """The values a key accepts, as the key table shows them."""
    if kind == "choice":
        return "|".join(bounds)
    if bounds is None:
        return "nonempty path"
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


def _parse(key: str, raw: str, kind: str, bounds):
    """One key's typed value: None for ``auto``, a tuple for a list."""
    text = raw.strip()
    if kind == "path":
        if not text:  # would write into the working directory
            raise ConfigError(f"'{key}': must not be empty")
        return text
    if kind == "choice":
        if text.lower() not in bounds:
            raise ConfigError(f"'{key}': expected {_span(kind, bounds)}, got {raw!r}")
        return text.lower()
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
    p_nodes: tuple = ()
    steps: int = 0

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def load(cls, command: str, path: str | None = None, overrides=()) -> "RunConfig":
        entries = dict(_DEFAULTS)
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 at byte offset {exc.start}") from None
            entries.update(parse_config_text(text, source=path))
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
        v["output.dir"] = Path(os.environ.get(OUTDIR_ENV) or v["output.dir"])

        # the rules between keys, in order; each may assume the ones before
        _require(
            len(grid) == 3 and grid[0] < grid[1] and grid[2] == int(grid[2])
            and 2 <= grid[2] <= MAX_ROWS // v["run.q_points"],
            "'run.p_grid' / 'run.q_points': expected 'min, max, count' with min < max "
            f"and an integer count from 2 to {MAX_ROWS} / run.q_points",
        )
        _require(v["run.p_cutoff_factors"], "'run.p_cutoff_factors': must be nonempty")
        if job in ("fiducial", "unity", "compare", "evolve quantum"):
            # the fiducial support, and the potential bandwidth where H acts on
            # the lattice: fiducial and unity read no potential
            band = degree if job in ("compare", "evolve quantum") else 0
            support = default_cutoff(z, band) if z < MAX_LATTICE_DIM else math.inf
            _require(support <= MAX_CUTOFF, f"'model.r' / 'model.hbar': r/hbar = {z:.6g} needs "
                     f"a lattice wider than MAX_LATTICE_DIM = {MAX_LATTICE_DIM} slots")
            cfg.basis = TwistedBasis(spec.alpha, spec.hbar, v["run.cutoff"] or support)
        if command == "unity":
            scale = spec.hbar * math.sqrt(max(z, 1.0))  # sqrt(hbar max(r, hbar)), no underflow
            cfg.p_cutoffs = tuple(factor * scale for factor in v["run.p_cutoff_factors"])
            cfg.p_nodes = tuple(legendre_node_count(cutoff, spec.hbar) for cutoff in cfg.p_cutoffs)
            nodes = max(cfg.p_nodes)
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
                cfg.basis = comparison_basis(cfg.model, v["run.p0"])
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
            steps = 1000 if v["run.total_time"] is None else v["run.total_time"] / v["run.dt"]
            _require(1.0 <= steps <= MAX_ROWS, f"'run.total_time': {steps:.6g} steps of "
                     f"run.dt, outside [1, {MAX_ROWS}]")
            cfg.steps = round(steps)
        return cfg


# CSV emission ---------------------------------------------------------


# values formatted and written at a time: a chunk's vectors (32 KB each)
# stay in cache; much larger chunks fault their temporaries back in from
# the OS, much smaller ones pay the fixed cost per call more often
CSV_CHUNK_VALUES = 4096

# A value's text is a cell of four little-endian words: byte 0 the sign, 2-6
# the "0.000" of -4 <= k < 0, 7 the leading digit, 8-24 the other 16 and the
# point, 25-29 the exponent, 31 the separator; NUL bytes are dropped.
_WORD = np.dtype("<u8")

# %.17g of a finite nonzero x is D = round(y), y = |x| 10^(16-k) in [1e16,
# 1e17), k = floor(log10 |x|).  With 10^(16-k) as the double-double h + l,
# y = p + e: p = fl(|x| h), and e = (|x| h - p) + fl(|x| l), the bracket
# exact by Dekker's product.  e misses y - p by at most 1e17 2^-106 (l's
# rounding) + 2^-51 (l subnormal, |x| < 2^1024) + 2^-50 (fl(|x| l) < 16)
# + 2^-49 (the sum, |e| < 32) < 4.4e-15: D is certain when e's fraction is
# further than the margin from 1/2.
_MARGIN = 1e-14
# decimal exponents with a table row: 10^(16-k) is finite from k = -292,
# the rows below that are NaN (their values stay uncertified), and one
# spare row each side takes a rescale
_K_LO, _K_HI = -325, 309
# clears a double's low 27 significand bits: 26 stay, the implicit one among them
_HIGH_26 = -2**27 % 2**64


def _words(texts: list, width: int) -> np.ndarray:
    """Each text's NUL-padded ``width`` bytes as little-endian words, a row per word."""
    return np.array(texts, f"S{width}").view(_WORD).reshape(len(texts), -1).T.copy()


@functools.cache
def _tables() -> tuple:
    """The formatter's tables, built on first use (``--version`` needs none)."""
    # per k: 10^(16-k) = h1 + h2 + l, h = h1 + h2 and l correctly rounded
    ks = range(_K_LO, _K_HI + 1)
    powers = [1]  # 10^j for j = 0..308, one product each
    for _ in range(308):
        powers.append(powers[-1] * 10)
    scale = [(math.nan,) * 2] * (-292 - _K_LO)
    for k in range(-292, _K_HI + 1):
        a, b = (powers[16 - k], 1) if k <= 16 else (1, powers[k - 16])
        h = a / b  # int / int rounds correctly
        n, d = h.as_integer_ratio()
        scale.append((h, (a * d - n * b) / (b * d)))
    h, low = np.array(scale).T.copy()
    # Dekker's split: h1 is h rounded to 26 bits, h2 = h - h1 the other 26
    h1 = ((h.view(_WORD) + 2**26) & _HIGH_26).view(np.float64)
    # per 4-digit group: its digit values, first digit in the lowest byte
    digit = np.arange(10, dtype=_WORD)
    digits = functools.reduce(np.bitwise_or.outer, [digit << 8 * s for s in range(4)]).ravel()
    # per 17 r + c (c of the 16 digits after the lead kept, the point after r
    # of them, r = 17 for none at -4 <= k < 0), 16 bytes as one item, so one
    # 1-D gather fetches two words: the s digits before the point, those
    # after it (moved up a byte) and the point
    r, c = np.divmod(np.arange(18 * 17)[:, None], 17)
    s = np.where(r == 17, c, r)
    byte = np.arange(16)
    head, tail, point = (np.where(mask, fill, 0).astype(np.uint8).view(np.complex128).ravel()
                         for mask, fill in ((byte < s, 0xFF), ((byte >= s) & (byte < c), 0xFF),
                                            ((byte == s) & (c > s), ord("."))))
    layout = np.array([0 if k < -4 or k >= 17 else 17 * 17 if k < 0 else 17 * k for k in ks])
    # per k: word 0's "0.000" and word 3's "e-05" (%g: fixed at -4 <= k < 17)
    prefix = _words([b"\0\0" + b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in ks], 8)
    suffix = _words([b"" if -4 <= k < 17 else b"\0e%+03d" % k for k in ks], 8)
    return h1, h - h1, low, digits, head, tail, point, layout, prefix[0], suffix[0]


def _scaled(ax: np.ndarray, i: np.ndarray) -> tuple:
    """floor(y) and its fraction for y = ax 10^(16-k), k = i + _K_LO."""
    h1, h2, low = (table[i] for table in _tables()[:3])
    a1 = (ax.view(_WORD) & _HIGH_26).view(np.float64)  # a2 keeps the other 27 bits
    a2 = ax - a1
    p = ax * (h1 + h2)
    # each partial product fits 53 bits, and each sum in this order is exact
    e = a1 * h1 - p
    e += a2 * h1
    e += a1 * h2
    e += a2 * h2
    e += ax * low
    whole = np.floor(e)
    return p.astype(np.int64) + whole.astype(np.int64), e - whole


def _text_cells(values: np.ndarray) -> np.ndarray:
    """Cells holding ``"%.17g" % v`` per value (at most 31 bytes)."""
    return np.array(["%.17g" % v for v in values.tolist()], "S32").view(_WORD).reshape(-1, 4)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Cells holding ``"%.17g" % v`` for a float64 vector: the digits of
    every value certified by ``_MARGIN`` from array arithmetic, the rest
    (zeros, non-finite values, magnitudes below 1e-292 and exact ties at
    the 17th digit) per value."""
    *_, digits, head, tail, point, layout, prefix, suffix = _tables()
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        certified = (ax > 0) & (ax < math.inf)
        ax[~certified] = 1.0
        i = np.floor(np.log10(ax)).astype(np.intp) - _K_LO
        d, f = _scaled(ax, i)
        # log10 can miss k by one next to a power of ten: rescale once
        fix = np.flatnonzero((d < 10**16) | (d >= 10**17))
        if fix.size:
            i[fix] += np.where(d[fix] < 10**16, -1, 1)
            d[fix], f[fix] = _scaled(ax[fix], i[fix])
            certified[fix] &= (d[fix] >= 10**16) & (d[fix] < 10**17)
        certified &= np.abs(f - 0.5) > _MARGIN
        d += f > 0.5
        carry = d == 10**17
        d[carry] = 10**16
        i += carry
        # the lead, and the other 16 digits as two words of 8, each word two
        # 4-digit groups read from the digit table, first digit lowest
        top = d // 10**8
        lead = top // 10**8
        w = np.stack([top - lead * 10**8, d - top * 10**8], axis=1)
        high = w // 10**4
        w = digits.take(high) | digits.take(w - high * 10**4) << 32
        # digits kept: up to the highest nonzero byte, found from a float's exponent
        second = w[:, 1] != 0
        bits = np.where(second, w[:, 1], w[:, 0]).astype(np.float64).view(np.int64) >> 52
        j = layout[i] + (np.maximum(bits - 1015, 0) >> 3) + 8 * second
        w |= 0x3030303030303030
        after = w & tail[j].view(_WORD).reshape(-1, 2)
        w &= head[j].view(_WORD).reshape(-1, 2)
        w |= after << 8
        w |= point[j].view(_WORD).reshape(-1, 2)
        w[:, 1] |= after[:, 0] >> 56
        # words 1 and 2 of each cell, as one 16-byte item
        cells = np.empty((x.size, 4), _WORD)
        cells.view(np.uint8)[:, 8:24].view(np.complex128)[:, 0] = w.view(np.complex128)[:, 0]
        sign = (x.view(_WORD) >> 63) * ord("-")
        np.bitwise_or(prefix[i] | sign, (lead.view(_WORD) + ord("0")) << 56, out=cells[:, 0])
        np.bitwise_or(after[:, 1] >> 56, suffix[i], out=cells[:, 3])
    fallback = np.flatnonzero(~certified)
    cells[fallback] = _text_cells(x[fallback])
    return cells


def _chunk_text(columns: list) -> bytes:
    """Rows of columns as CSV text, every value a ``_float_cells`` cell in
    one call: an integer below 2^53 in magnitude is exact as a float, and
    its ``%.17g`` text is its ``%d`` text."""
    values = np.stack(columns, axis=1, dtype=np.float64)
    cells = _float_cells(values.ravel()).reshape(*values.shape, 4)
    text = cells.view(np.uint8).reshape(*values.shape, 32)
    text[:, :, -1] = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    return text.tobytes().translate(None, b"\0")


def _open(path: Path):
    # the output directory appears with the first file: commands check
    # every key, and _emit every column, before writing, so a rejected run
    # leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


def write_csv(path: Path, name: str, table: dict) -> Path:
    """Write ``{column: values}`` under a schema line, a timestamp and the
    column names; every value as ``"%.17g" % float(v)``, byte for byte, so
    integers below 2^53 in magnitude and bools as ``%d``."""
    columns = [np.atleast_1d(values) for values in table.values()]
    rows = max(1, CSV_CHUNK_VALUES // len(columns))
    with _open(path) as handle:
        handle.write(f"# schema: circleq/{name} {SCHEMA_VERSION}\n"
                     f"# generated: {datetime.now(timezone.utc).isoformat()}\n"
                     f"{','.join(table)}\n".encode())
        for start in range(0, len(columns[0]), rows):
            handle.write(_chunk_text([c[start:start + rows] for c in columns]))
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
        handle.write((_PLOT_PRELUDE + body).encode())
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
    # 720 profile angles and the moments <cos nQ> for n = 0..4: the output is
    # fixed by r, alpha and hbar alone
    spec, basis = cfg.spec, cfg.basis
    theta = -math.pi + 2.0 * math.pi * np.arange(720) / 720
    amp = evaluate(spec, theta)
    # natural logs in closed form: past r/hbar of about 119 the linear upper
    # envelope overflows, and the density's tails underflow to 0 before that
    z, log_peak = spec.localization, 2.0 * math.log(normalization(spec))  # log N^2
    log_gauss = log_peak - z * theta * theta
    mean_q, mean_p, var_p = moments(spec)
    cos_moments = attenuations(spec, 4)
    coeffs = momentum_coefficients(spec, basis)
    tables = [
        ("fiducial_profile.csv", "fiducial-profile", {
            "theta": theta, "log_density": log_peak + 2.0 * z * (np.cos(theta) - 1.0),
            "re": amp.real, "im": amp.imag,
            "log_upper_envelope": log_gauss + z * (math.pi**2 - 4.0),
            "log_lower_envelope": log_gauss,
        }),
        ("fiducial_moments.csv", "fiducial-moments", {
            "r": spec.r, "alpha": spec.alpha, "hbar": spec.hbar,
            "mean_q": mean_q, "mean_p": mean_p, "var_p": var_p,
        }),
        ("fiducial_attenuation.csv", "fiducial-attenuation", {
            "harmonic": np.arange(len(cos_moments)), "cos_moment": cos_moments,
        }),
        ("fiducial_coefficients.csv", "fiducial-coefficients", {
            "n": basis.n_values(), "momentum": basis.momenta(), "coefficient": coeffs,
        }),
    ]
    return tables, """
profile = load("fiducial_profile.csv")
fig, ax = plt.subplots()
ax.plot(profile["theta"], profile["log_density"], label="log |eta|^2")
ax.plot(profile["theta"], profile["log_upper_envelope"], "--", label="log upper Gaussian")
ax.plot(profile["theta"], profile["log_lower_envelope"], ":", label="log lower Gaussian")
ax.set_xlabel("theta"); ax.set_ylabel("log density"); ax.legend()
fig.savefig("fiducial_profile.png", dpi=150)
"""


def cmd_unity(cfg: RunConfig):
    spec, basis = cfg.spec, cfg.basis
    interior = np.abs(basis.n_values()) <= max(spec.localization, 1.0)
    defects = np.abs(verify_unity(spec, basis, cfg.p_cutoffs) - 1.0)
    return [("unity_defects.csv", "unity-defects", {
        "p_cutoff": cfg.p_cutoffs,
        "p_nodes": cfg.p_nodes,
        "diag_defect": defects.max(axis=1),
        "interior_diag_defect": defects[:, interior].max(axis=1),
        # the angle integral is 2 pi delta_mn exactly (coherent module docstring)
        "offdiag_defect": np.zeros(len(defects)),
    })], """
defects = load("unity_defects.csv")
fig, ax = plt.subplots()
ax.loglog(defects["p_cutoff"], defects["interior_diag_defect"], "o-", label="interior diagonal")
ax.set_xlabel("momentum cutoff"); ax.set_ylabel("defect"); ax.legend()
fig.savefig("unity_defects.png", dpi=150)
"""


def cmd_hamiltonian(cfg: RunConfig):
    model, spec, potential = cfg.model, cfg.spec, cfg.potential
    p_min, p_max, p_count = cfg["run.p_grid"]
    p_axis = np.linspace(p_min, p_max, int(p_count))
    q_count = cfg["run.q_points"]
    q_axis = -math.pi + 2.0 * math.pi * np.arange(q_count) / q_count
    # surfaces on the broadcast axes; rows: p outer, q inner
    p, q = p_axis[:, None], q_axis[None, :]
    h_cs = enhanced_hamiltonian(model, p, q)
    h_shifted = enhanced_hamiltonian(model, canonical_shift(p, spec), q)
    h_c = classical_hamiltonian(potential, p, q)
    residual = h_shifted - h_c - model.kinetic_offset
    tables = [
        ("hamiltonian_grid.csv", "hamiltonian-grid", {
            "p": np.repeat(p_axis, q_count), "q": np.tile(q_axis, p_axis.size),
            "h_coherent": h_cs.ravel(),
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
    dt, steps = cfg["run.dt"], cfg.steps
    p0, q0 = cfg["run.p0"], float(wrap_angle(cfg["run.q0"]))
    if kind in ("classical", "enhanced"):
        traj = evolve(kind, model, p0, q0, dt, steps)
        table = _trajectory_table(f"trajectory_{kind}.csv", kind, traj)
    else:
        try:
            state = coherent_state(model.spec, basis, p0, q0)
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
    model, p0 = cfg.model, cfg["run.p0"]
    try:  # the coherent state's leak is the only ResolutionError it raises
        report = compare_restricted(model, p0, cfg["run.q0"], cfg["run.dt"], cfg.steps)
    except ResolutionError:
        raise _fractional_boost(model.spec, p0) from None

    tables = [
        _trajectory_table("compare_classical.csv", "classical", report.classical),
        _trajectory_table("compare_enhanced.csv", "enhanced", report.enhanced),
        _quantum_table("compare_quantum.csv", report.quantum),
        ("compare_deviation.csv", "compare-deviation", {
            "t": report.quantum.times, "momentum_deviation": report.momentum_deviation,
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


def _selftest_checks():
    """The package's numerical contracts, each read off the tables a shipped
    command returns for a tiny config; nothing is written."""

    def tables(command, *settings):
        out, _ = _COMMANDS[command](RunConfig.load(command, overrides=settings))
        return {file: table for file, _, table in out}

    twisted = ("model.r = 2", "model.alpha = 0.3", "model.hbar = 0.5")

    def check_normalization():
        profile = tables("fiducial", *twisted)["fiducial_profile.csv"]
        # the trapezoid rule is spectrally exact for the periodic density
        total = np.exp(profile["log_density"]).mean() * 2.0 * math.pi
        return abs(total - 1.0) < 1e-10

    def check_centering():
        out = tables("fiducial", *twisted)
        mom, rho_1 = out["fiducial_moments.csv"], out["fiducial_attenuation.csv"]["cos_moment"][1]
        var_p = 0.5 * mom["hbar"] * mom["r"] * rho_1
        return (abs(mom["mean_q"]) < 1e-9 and abs(mom["mean_p"] - mom["hbar"] * mom["alpha"]) < 1e-9
                and abs(mom["var_p"] - var_p) < 1e-10 * var_p)

    def check_unity_diag():
        defects = tables("unity", "model.r = 1", "model.alpha = 0.25", "run.cutoff = 8",
                         "run.p_cutoff_factors = 40")["unity_defects.csv"]
        return defects["interior_diag_defect"][0] < 1e-3

    def check_coherent_energy():
        # H_cs(p, q) = <p, q| H |p, q>: the enhanced energy at t = 0 is the
        # quantum one, sine terms and twist included
        out = tables("compare", *twisted, "model.potential.a = 1, 0.3", "model.potential.b = 0.2",
                     "run.p0 = 1", "run.q0 = 0.7", "run.total_time = 0.04")
        h_cs = out["compare_enhanced.csv"]["energy"][0]
        return abs(out["compare_quantum.csv"]["energy"][0] - h_cs) <= 1e-10 * max(1.0, abs(h_cs))

    def check_spectrum():
        basis = TwistedBasis(0.3, 1.0, 16)
        ham = build_hamiltonian(TrigPotential(), basis)
        exact = np.sort(basis.momenta() ** 2)
        return float(np.max(np.abs(np.linalg.eigvalsh(ham.matrix) - exact))) < 1e-10

    return [
        ("fiducial-normalization", check_normalization),
        ("fiducial-centering", check_centering),
        ("unity-diagonal", check_unity_diag),
        ("coherent-energy", check_coherent_energy),
        ("free-spectrum", check_spectrum),
    ]


def cmd_selftest(cfg: RunConfig):
    failures = []
    for name, check in _selftest_checks():
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


# one parser per process: argparse copies the ``--set`` default list before
# appending to it, so no call sees another's overrides
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleq",
        description="circle coherent-state quantization toolkit",
    )
    parser.add_argument("--version", action="version", version=f"circleq {__version__}")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", "-c", default=None, help="path to a key = value config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a single config key",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # _emit's finite check reports an overflow; numpy need not warn of it too
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = RunConfig.load(args.command, args.config, args.overrides)
            tables, plot_body = _COMMANDS[args.command](cfg)
            written = _emit(cfg["output.dir"], args.command, tables, plot_body)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolation, ConvergenceError, ResolutionError) as exc:
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
