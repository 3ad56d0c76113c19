import contextlib
import dataclasses
import importlib
import io
import itertools
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleq.cli as cli
from circleq.cli import OUTDIR_ENV, RunConfig, main, parse_config_text
from circleq.coherent import coherent_state, legendre_node_count, verify_unity
from circleq.hilbert import default_cutoff, wrap_angle
from circleq.qevolve import build_hamiltonian, evolve_quantum
from oracles import digit_masks, power_of_ten_residuals, power_of_ten_splits

SCHEMAS = {
    "fiducial_profile.csv": "# schema: circleq/fiducial-profile v1",
    "fiducial_moments.csv": "# schema: circleq/fiducial-moments v1",
    "fiducial_attenuation.csv": "# schema: circleq/fiducial-attenuation v1",
    "fiducial_coefficients.csv": "# schema: circleq/fiducial-coefficients v1",
    "unity_defects.csv": "# schema: circleq/unity-defects v1",
    "hamiltonian_grid.csv": "# schema: circleq/hamiltonian-grid v1",
    "compare_summary.csv": "# schema: circleq/compare-summary v1",
}


def read_table(path):
    # two comment lines (schema, timestamp) precede the column header
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=2)


def stable_lines(path):
    return [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("# generated")
    ]


def run(tmp_path, command, *settings):
    outdir = tmp_path / "out"
    args = [command, "--set", f"output.dir = {outdir}"]
    for item in settings:
        args += ["--set", item]
    code = main(args)
    return code, outdir


def test_config_grammar_and_unknown_key():
    entries = parse_config_text("model.hbar = 2.0\n# comment\n\nrun.q_points=5")
    assert entries == {"model.hbar": "2.0", "run.q_points": "5"}
    with pytest.raises(Exception) as info:
        parse_config_text("model.mass = 1.0")
    assert "model.mass" in str(info.value)


def test_config_file_loading(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.r = 2.5\nrun.q_points = 17  # inline comment\n")
    cfg = RunConfig.load("evolve", str(cfgfile), overrides=["run.q_points = 19"])
    assert cfg.spec.r == 2.5
    assert cfg["run.q_points"] == 19


def test_config_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(b"model.r = 2\xff\n")
    outdir = tmp_path / "out"
    assert main(["fiducial", "-c", str(cfgfile), "--set", f"output.dir = {outdir}"]) == 1
    err = capsys.readouterr().err
    assert f"{cfgfile}: not UTF-8 at byte offset 11" in err and "Traceback" not in err
    assert not outdir.exists()


def test_malformed_value_exits_one(tmp_path, capsys):
    code, _ = run(tmp_path, "fiducial", "model.r = banana")
    assert code == 1
    assert "model.r" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("run.dt", "nan"),
        ("run.p0", "inf"),
        ("run.q0", "nan"),
        ("model.r", "nan"),
        ("model.r", "inf"),
        ("model.hbar", "nan"),
        ("model.alpha", "nan"),
        ("model.potential.a", "1.0, -inf"),
    ],
)
def test_non_finite_value_exits_one(tmp_path, capsys, key, value):
    code, outdir = run(tmp_path, "evolve", "run.total_time = 0.05", f"{key} = {value}")
    assert code == 1
    assert key in capsys.readouterr().err
    assert not any(outdir.glob("*.csv"))


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("evolve", "run.dt", "nan"),
        ("compare", "run.q0", "nan"),
        ("unity", "run.cutoff", "abc"),
        ("unity", "run.cutoff", "0"),
        ("fiducial", "run.max_harmonic", "abc"),  # a retired key
    ],
)
def test_rejected_config_leaves_no_output_dir(tmp_path, capsys, command, key, value):
    code, outdir = run(tmp_path, command, "run.total_time = 0.05", f"{key} = {value}")
    assert code == 1
    assert key in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["compare", "evolve"])
@pytest.mark.parametrize("p0", ["1e300", "1e4"])
def test_boost_beyond_lattice_limit_exits_one(tmp_path, capsys, command, p0):
    # refused before any lattice of that size is built, so it is quick
    start = time.perf_counter()
    code, outdir = run(
        tmp_path, command, "model.hbar = 0.05", "run.kind = quantum",
        "run.total_time = 0.05", f"run.p0 = {p0}",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "run.p0" in err and "Traceback" not in err
    assert not outdir.exists()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "command, settings",
    [
        ("unity", ("model.r = 100", "model.hbar = 1e-3")),
        ("evolve", ("run.kind = quantum", "model.hbar = 1e-300")),
        ("compare", ("model.r = 1e10", "model.hbar = 1e-300")),
        ("hamiltonian", ("model.hbar = 1e-300",)),
        ("hamiltonian", ("model.hbar = 1e-9",)),
        ("evolve", ("run.kind = classical", "model.hbar = 1e-300")),
        ("evolve", ("run.kind = enhanced", "model.hbar = 1e-300")),
        ("evolve", ("run.kind = enhanced", "model.hbar = 1e-9")),
        ("hamiltonian", ("model.r = 1e10", "model.hbar = 1e-300")),
    ],
)
def test_localization_beyond_lattice_limit_exits_one(tmp_path, capsys, command, settings):
    # r/hbar = 1e5 would ask for a 1.6e6-slot lattice, 1e9 and 1e300 for a
    # Bessel recurrence of 1e9 and 1e300 orders (hamiltonian and the
    # classical and enhanced flows build no lattice), and 1e310 overflows
    # to inf; all are refused before anything of that size is built
    start = time.perf_counter()
    code, outdir = run(tmp_path, command, "run.total_time = 0.05", *settings)
    assert code == 1
    err = capsys.readouterr().err
    assert "model.r" in err and "model.hbar" in err and "Traceback" not in err
    assert not outdir.exists()
    assert time.perf_counter() - start < 5.0


def test_unknown_key_exits_one(tmp_path, capsys):
    code, _ = run(tmp_path, "fiducial", "model.bogus = 1")
    assert code == 1
    assert "model.bogus" in capsys.readouterr().err


def test_unwritable_output_exits_three(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code = main(["fiducial", "--set", f"output.dir = {blocker}"])
    assert code == 3


def test_fiducial_outputs_and_moments_row(tmp_path):
    code, outdir = run(tmp_path, "fiducial", "model.r = 2.0", "model.alpha = 0.3")
    assert code == 0
    for name in ("fiducial_profile.csv", "fiducial_moments.csv",
                 "fiducial_attenuation.csv", "fiducial_coefficients.csv"):
        first = (outdir / name).read_text().splitlines()[0]
        assert first == SCHEMAS[name]
    assert stable_lines(outdir / "fiducial_moments.csv")[1] == "r,alpha,hbar,mean_q,mean_p,var_p"
    row = read_table(outdir / "fiducial_moments.csv")
    assert abs(float(row["mean_q"])) < 1e-9
    assert float(row["mean_p"]) == pytest.approx(0.3, abs=1e-9)
    profile = read_table(outdir / "fiducial_profile.csv")
    assert np.all(profile["log_density"] <= profile["log_upper_envelope"] + 1e-12)
    assert np.all(profile["log_density"] >= profile["log_lower_envelope"] - 1e-12)


@pytest.mark.parametrize("r", ["0", "120", "200"])
def test_fiducial_runs_at_large_localization(tmp_path, r):
    # the linear upper envelope overflowed past r/hbar of about 119, and
    # load refused such runs; r = 0 is the uniform state
    code, outdir = run(tmp_path, "fiducial", f"model.r = {r}")
    assert code == 0
    for name in SCHEMAS:
        if name.startswith("fiducial"):
            table = np.loadtxt(outdir / name, delimiter=",", skiprows=3, ndmin=2)
            assert table.size and np.all(np.isfinite(table)), name


def test_fiducial_log_profile_matches_linear_formulas(tmp_path):
    from circleq.fiducial import FiducialSpec, evaluate, normalization

    code, outdir = run(tmp_path, "fiducial", "model.r = 2.0")
    assert code == 0
    profile = read_table(outdir / "fiducial_profile.csv")
    spec, theta = FiducialSpec(r=2.0), profile["theta"]
    gauss = normalization(spec) ** 2 * np.exp(-2.0 * theta * theta)
    linear = {
        "log_density": np.abs(evaluate(spec, theta)) ** 2,
        "log_upper_envelope": math.exp(2.0 * (math.pi**2 - 4.0)) * gauss,
        "log_lower_envelope": gauss,
    }
    for column, values in linear.items():
        assert np.allclose(np.exp(profile[column]), values, rtol=1e-14, atol=0.0), column


def test_fiducial_rerun_is_bit_identical(tmp_path):
    _, out1 = run(tmp_path / "a", "fiducial")
    _, out2 = run(tmp_path / "b", "fiducial")
    for name in ("fiducial_profile.csv", "fiducial_moments.csv",
                 "fiducial_attenuation.csv", "fiducial_coefficients.csv"):
        assert stable_lines(out1 / name) == stable_lines(out2 / name)


@pytest.mark.parametrize("command", ["fiducial", "unity"])
def test_fiducial_and_unity_ignore_the_potential(tmp_path, command):
    # their lattice holds the fiducial support alone, and fiducial writes
    # the moments <cos nQ> for n = 0..4 whatever the potential's degree, so
    # no potential key changes what they write
    _, bare = run(tmp_path / "bare", command, "model.r = 2")
    _, loaded = run(tmp_path / "loaded", command, "model.r = 2",
                    "model.potential.a = 1, 1, 1, 1, 1, 1")
    names = sorted(path.name for path in bare.iterdir())
    assert names == sorted(path.name for path in loaded.iterdir())
    for name in names:
        assert stable_lines(bare / name) == stable_lines(loaded / name), name


def test_numbers_round_trip_at_17_digits(tmp_path):
    _, outdir = run(tmp_path, "fiducial")
    coeffs = read_table(outdir / "fiducial_coefficients.csv")
    from circleq.fiducial import FiducialSpec, momentum_coefficients, default_basis

    spec = FiducialSpec(r=1.0)
    exact = momentum_coefficients(spec, default_basis(spec))
    assert np.array_equal(coeffs["coefficient"], exact)
    # default model is centered at zero twist
    row = read_table(outdir / "fiducial_moments.csv")
    assert abs(float(row["mean_q"])) < 1e-9 and abs(float(row["mean_p"])) < 1e-9


def per_value(value):
    """The per-value formatter write_csv replaced, kept as its oracle."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("rows", [1, len(EDGE_FLOATS), 2 * cli.CSV_CHUNK_VALUES + 3])
def test_write_csv_matches_the_per_value_formatter(tmp_path, rows):
    # the chunked writer against one format() call per value, on float edge
    # cases, negative numpy and Python ints up to 2^53 in magnitude (each
    # exact as a float), bools, one-row tables and tables that cross chunk
    # boundaries (11 chunks at 8195 rows)
    rng = np.random.default_rng(rows)
    floats = np.resize(np.array(EDGE_FLOATS), rows) * rng.choice([1.0, -1.0, 1e-300], rows)
    table = {
        "x": floats,
        "n": -np.arange(rows, dtype=np.int64) - 2**40,
        "k": [int(v) for v in rng.integers(-(2**53), 2**53, rows, endpoint=True)],
        "y": rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows),
        "ok": rng.random(rows) < 0.5,
    }
    path = cli.write_csv(tmp_path / "t.csv", "oracle", table)
    assert path == tmp_path / "t.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema: circleq/oracle {cli.SCHEMA_VERSION}"
    assert lines[1].startswith("# generated: ") and lines[2] == "x,n,k,y,ok"
    expected = [",".join(per_value(column[i]) for column in table.values()) for i in range(rows)]
    assert lines[3:] == expected


def test_write_csv_single_values_are_one_row(tmp_path):
    path = cli.write_csv(tmp_path / "s.csv", "single", {"a": -0.0, "ok": True, "m": -7})
    assert path.read_text().splitlines()[3] == "-0,1,-7"


def written_floats(values) -> list:
    """The data lines write_csv gives a one-column float table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = cli.write_csv(Path(tmp) / "v.csv", "values", {"x": np.asarray(values, float)})
        return path.read_text().splitlines()[3:]


def assert_per_value(values):
    values = np.asarray(values, float)
    assert written_floats(values) == [per_value(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_float_text_matches_per_value_on_any_floats(values):
    assert_per_value(values)


def test_float_text_matches_per_value_on_raw_bit_patterns():
    # every exponent and sign, NaN payloads and infinities among them
    bits = np.random.default_rng(20121022).integers(0, 2**64, 200_000, np.uint64, endpoint=False)
    assert_per_value(bits.view(np.float64))


def digit_groups():
    # 17 digits whose 16 after the lead put 0000, 0001, 1000 or 9999 in each
    # 4-digit group read from the digit table, 1e16 and 99999999999999999
    # among them, at exponents on both sides of both notation switches
    groups = ("0000", "0001", "1000", "9999")
    return [float(f"{lead}.{''.join(four)}e{k}") for lead, *four, k in itertools.product(
        "19", *[groups] * 4, (-250, -5, -1, 0, 15, 16, 17, 22, 300))]


def ties():
    # 2^50 <= |x| < 2^51 has quarter ulps and 16 integer digits, so x.25 and
    # x.75 end the 17 digits on an exact half; 2^49..2^50 has eighth ulps
    # and 15, so x.125 and x.375 do: %.17g rounds them to even
    return [1234567890123456.25, 1234567890123456.75, 1234567890123457.25,
            1234567890123457.75, 562949953421312.125, 562949953421312.375]


FORMAT_EDGES = {
    "ties": ties() + [-x for x in ties()],
    # %g switches to exponent notation below 1e-4 and from 1e17 on
    "notation_switch": [v for p in (1e-5, 1e-4, 1e16, 1e17)
                        for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))],
    # doubles just below a power of ten whose 17 digits carry into it
    "decade_carry": [99999999999999999.0, 1e-305, 1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129,
                     1e153, 1e220, 9.9999999999999999e22, 0.99999999999999994],
    "subnormal": [5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308],
    "extremes": [1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0],
    "three_digit_exponents": [1e100, -1e-100, 9.999999999999999e99, 1e-99, 1.2345e-150, 6.02e307],
    "digit_groups": digit_groups(),
}


@pytest.mark.parametrize("name", list(FORMAT_EDGES))
def test_float_text_matches_per_value_on_edge_cases(name):
    assert_per_value(FORMAT_EDGES[name])


def test_uncertified_route_gives_the_same_bytes(tmp_path, monkeypatch):
    # a margin of 1/2 certifies nothing: every float then takes the
    # per-value route, to the same bytes
    rng = np.random.default_rng(5)
    x = np.concatenate([sum(FORMAT_EDGES.values(), []), rng.normal(size=3000)])
    table = {"x": x, "y": rng.normal(size=x.size) * 1e-7}
    per_value_route, text_cells = [], cli._text_cells

    def spy(values):
        per_value_route.append(len(values))
        return text_cells(values)

    monkeypatch.setattr(cli, "_text_cells", spy)
    fast = stable_lines(cli.write_csv(tmp_path / "fast.csv", "t", table))
    assert sum(per_value_route) < 0.1 * 2 * x.size
    per_value_route.clear()
    monkeypatch.setattr(cli, "_MARGIN", 0.5)
    slow = stable_lines(cli.write_csv(tmp_path / "slow.csv", "t", table))
    assert sum(per_value_route) == 2 * x.size
    assert fast == slow


def test_realistic_values_take_the_per_value_route_only_at_zero(monkeypatch):
    # time axes, and normal draws scaled from 1e-12 to 1e3 as trajectories,
    # energies and deviations are: % formats their zero alone, and again
    # every value once a margin of 1/2 certifies none
    rng = np.random.default_rng(20121022)
    x = np.concatenate([0.002 * np.arange(50_000),
                        rng.normal(size=50_000) * 10.0 ** rng.integers(-12, 4, 50_000)])
    per_value_route, text_cells = [], cli._text_cells

    def spy(values):
        per_value_route.extend(values.tolist())
        return text_cells(values)

    monkeypatch.setattr(cli, "_text_cells", spy)
    assert written_floats(x) == ["%.17g" % v for v in x.tolist()]
    assert per_value_route == [0.0]
    per_value_route.clear()
    monkeypatch.setattr(cli, "_MARGIN", 0.5)
    assert written_floats(x) == ["%.17g" % v for v in x.tolist()]
    assert len(per_value_route) == x.size


def test_power_of_ten_split_is_the_integer_split():
    # the bit-mask split on all 635 rows: the 602 finite ones as Dekker's
    # integer split gives them, the 33 below k = -292 NaN in both halves
    h1, h2 = cli._tables()[:2]
    want1, want2 = power_of_ten_splits(cli._K_LO, cli._K_HI)
    assert h1.size == 635 and np.count_nonzero(np.isnan(want1)) == 33
    assert h1.tobytes() == want1.tobytes() and h2.tobytes() == want2.tobytes()


def test_digit_masks_are_the_integer_masks_byte_for_byte():
    head, tail, point = cli._tables()[4:7]
    assert [t.tobytes() for t in (head, tail, point)] == [t.tobytes() for t in digit_masks()]


def test_digit_table_is_every_group_as_four_digits():
    digits = cli._tables()[3]
    assert digits.shape == (10**4,) and not np.any(digits >> 32)
    text = (digits.view(np.uint8).reshape(-1, 8)[:, :4] + ord("0")).tobytes()
    assert text == b"".join(b"%04d" % g for g in range(10**4))


def test_power_of_ten_residuals_equal_the_exact_quotient():
    # subnormal residuals (k near 309) among them
    low = cli._tables()[2]
    exact = power_of_ten_residuals(cli._K_LO, cli._K_HI)
    assert low.tobytes() == exact.tobytes()
    assert np.count_nonzero(np.abs(exact) < np.finfo(float).tiny) > 0


def test_write_csv_writes_non_finite_values_as_percent_does():
    # _emit refuses them, but write_csv is public
    assert written_floats([math.nan, math.inf, -math.inf, -1.5]) == ["nan", "inf", "-inf", "-1.5"]


def test_non_finite_output_exits_two_before_writing(tmp_path, capsys):
    # finite coefficients whose sum overflows used to exit 0 with inf rows;
    # the exit-2 line is all the user sees, with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, outdir = run(tmp_path, "hamiltonian", "model.potential.a = 9.01e307, 9.01e307")
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical contract violated: hamiltonian_grid.csv: column 'h_classical' is not finite\n"
    )
    assert not outdir.exists()


def test_unity_ladder_csv(tmp_path):
    code, outdir = run(tmp_path, "unity", "model.alpha = 0.25")
    assert code == 0
    table = read_table(outdir / "unity_defects.csv")
    interior = table["interior_diag_defect"]
    assert np.all(np.diff(interior) < 0.0)
    assert interior[-1] <= 1e-3
    assert np.all(table["offdiag_defect"] == 0.0)
    # each row's node count and its defect over every slot, from the diagonals
    cfg = RunConfig.load("unity", overrides=["model.alpha = 0.25"])
    diagonals = verify_unity(cfg.spec, cfg.basis, cfg.p_cutoffs)
    assert np.array_equal(table["diag_defect"], np.max(np.abs(diagonals - 1.0), axis=1))
    assert np.array_equal(table["p_nodes"], [legendre_node_count(c, cfg.spec.hbar) for c in cfg.p_cutoffs])
    assert (outdir / "unity_defects.csv").read_text().splitlines()[0] == SCHEMAS["unity_defects.csv"]


def test_unity_single_cutoff_same_schema(tmp_path):
    _, outdir = run(tmp_path, "unity", "run.p_cutoff_factors = 40")
    lines = stable_lines(outdir / "unity_defects.csv")
    assert lines[0] == SCHEMAS["unity_defects.csv"]
    assert lines[1].startswith("p_cutoff,")
    assert len(lines) == 3  # schema + header + one row


def test_hamiltonian_grid_dump(tmp_path):
    code, outdir = run(
        tmp_path, "hamiltonian",
        "model.potential.a = 1.0", "model.r = 50.0", "run.p_grid = -2, 2, 9",
    )
    assert code == 0
    table = read_table(outdir / "hamiltonian_grid.csv")
    # after the canonical shift the residual is the attenuation gap only
    meta = read_table(outdir / "hamiltonian_meta.csv")
    bound = (1.0 - float(meta["rho_1"])) + 1e-12
    assert np.all(np.abs(table["residual"]) <= bound)
    assert (outdir / "hamiltonian_grid.csv").read_text().splitlines()[0] == SCHEMAS["hamiltonian_grid.csv"]


def test_hamiltonian_runs_at_large_localization(tmp_path):
    # r/hbar = 1e5 builds no lattice, only a Bessel ratio sequence at 2e5
    code, outdir = run(
        tmp_path, "hamiltonian", "model.potential.a = 1.0", "model.hbar = 1e-5",
        "run.p_grid = -1, 1, 3", "run.q_points = 4",
    )
    assert code == 0
    meta = read_table(outdir / "hamiltonian_meta.csv")
    assert float(meta["rho_1"]) == pytest.approx(1.0 - 1.0 / 4e5, rel=1e-9)


def test_docstring_key_table_matches_defaults():
    # a key's row starts in column 0; a wrapped text continues indented
    rows = {}
    table = cli.__doc__.split("range; meaning (default)")[1].split("\n\n")[0]
    for line in table.splitlines():
        if line.startswith(" "):
            rows[key] += " " + line.strip()
        elif line and not line.startswith("="):
            key, _, text = line.partition(" ")
            rows[key] = text.strip()
    assert list(rows) == list(cli._DEFAULTS)
    for key, default, kind, bounds, _ in cli._KEYS:
        assert rows[key].endswith(f"({default or 'empty'})")
        span = rows[key].split(";")[0]
        if kind in ("choice", "path"):
            assert span == ("nonempty path" if kind == "path" else "|".join(bounds))
            continue
        # finite bounds are inclusive, [x and x], except (0 for the
        # smallest normal double; infinite ones are open
        lo, hi, auto = bounds
        m = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])( or auto)?", span)
        assert m, span
        left = ("(", 0.0) if lo == cli._TINY else ("(" if lo == -math.inf else "[", lo)
        assert (m[1], float(m[2])) == left
        assert (m[4], float(m[3])) == ("]" if math.isfinite(hi) else ")", hi)
        assert bool(m[5]) == auto


def test_readme_key_table_is_the_generated_one():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"```text\n{cli._key_table()}\n```" in readme


# the command that reads each run key; compare reads every model key and
# the rest of the run keys
READER = {
    "output.dir": "fiducial",
    "run.cutoff": "unity", "run.p_cutoff_factors": "unity",
    "run.kind": "evolve", "run.p_grid": "hamiltonian", "run.q_points": "hamiltonian",
}


def _key_values(kind, bounds):
    """Unparsable, non-finite, negative, zero and over-cap values of a key,
    then small values inside its range."""
    edges = ["banana", "", "1,,2", "nan", "inf", "-inf", "1, nan", "-1", "-0.5", "0", "auto"]
    if kind == "choice":
        return st.sampled_from(edges + ["maybe"]) | st.sampled_from(bounds)
    if kind == "path":
        return st.sampled_from(["", "{tmp}/a b", "{tmp}/x/y"])
    lo, hi, _ = bounds
    if hi != math.inf:
        edges.append(str(hi + 1) if kind == "int" else repr(2 * hi))
    if kind == "int":
        return st.sampled_from(edges) | st.integers(lo, min(hi, lo + 50)).map(str)
    number = st.floats(max(lo, -3.0), min(hi, 3.0))
    if kind == "float":
        return st.sampled_from(edges) | number.map(repr)
    lists = st.lists(number, max_size=3).map(lambda xs: ", ".join(map(repr, xs)))
    return st.sampled_from(edges + ["-1, 1, 5"]) | lists


@pytest.mark.parametrize("row", cli._KEYS, ids=[row[0] for row in cli._KEYS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_main_on_any_value_of_any_key(row, data):
    # in-process through main: exit 0, 1 or 2 and nothing raised; exit 1
    # names the key, exit 0 writes tables with rows of finite numbers
    key, _, kind, bounds, _ = row
    with tempfile.TemporaryDirectory() as tmp:
        value = data.draw(_key_values(kind, bounds)).replace("{tmp}", tmp)
        argv = [READER.get(key, "compare"), "--set", f"output.dir = {tmp}/out", "--set",
                f"{key} = {value}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert code != 1 or key in err.getvalue(), (argv, err.getvalue())
        for name in out.getvalue().splitlines() if code == 0 else ():
            if name.endswith(".csv"):
                table = np.loadtxt(name, delimiter=",", skiprows=3, ndmin=2)
                assert table.size and np.all(np.isfinite(table)), (argv, name)


def _case(number: int, command: str, settings: tuple, key: str):
    """A row of test_out_of_range_inputs_exit_one under a fixed id: removing a
    row renames no other, and a new row takes a new number."""
    return pytest.param(command, settings, key, id=f"{command}-settings{number}-{key}")


@pytest.mark.parametrize(
    "command, settings, key",
    [
        _case(7, "unity", ("run.p_cutoff_factors = -1",), "run.p_cutoff_factors"),
        _case(8, "unity", ("run.p_cutoff_factors = 1e9",), "run.p_cutoff_factors"),
        _case(9, "unity", ("run.p_cutoff_factors = 3000",), "run.p_cutoff_factors"),
        _case(11, "unity", ("model.hbar = 1e200", "model.r = 1e200"), "model.hbar"),
        _case(13, "selftest", ("run.q_points = 0",), "run.q_points"),
        _case(14, "evolve", ("model.potential.a = 1", "run.dt = 5"), "run.dt"),
        _case(15, "compare", ("model.potential.a = 1", "run.dt = 5"), "run.dt"),
        _case(16, "hamiltonian", ("run.p_grid = -1, 1, 1e12",), "run.p_grid"),
        _case(17, "hamiltonian", ("run.p_grid = -1, 1, 2.5",), "run.p_grid"),
        _case(18, "hamiltonian", ("run.q_points = -3",), "run.q_points"),
        _case(19, "hamiltonian", ("run.q_points = 0",), "run.q_points"),
        _case(20, "compare", ("run.total_time = -1",), "run.total_time"),
        _case(21, "compare", ("run.total_time = 0",), "run.total_time"),
        _case(22, "compare", ("run.total_time = 1e9",), "run.total_time"),
        _case(23, "evolve", ("run.kind = quantum", "model.hbar = 1e200"), "model.hbar"),
        _case(24, "fiducial", ("output.dir =",), "output.dir"),
        _case(25, "unity", ("run.full_2d = true",), "unknown key 'run.full_2d'"),
        _case(26, "evolve", ("run.p0 = 1e200",), "run.p0"),
        _case(27, "hamiltonian", ("run.p_grid = -1e200, 1, 3",), "run.p_grid"),
        _case(28, "compare", ("run.dt = 9e306",), "run.dt"),
        _case(29, "evolve", ("run.kind = classical", "model.potential.a = 0, 9e307"),
              "model.potential.a"),
        _case(30, "compare", ("model.hbar = 1e-3", "model.r = 1e-3", "run.p0 = 100"), "model.hbar"),
        _case(31, "evolve", ("run.total_time = 1e9",), "run.total_time"),
        _case(32, "evolve", ("run.dt = 0.01", "run.total_time = 0.001"), "run.total_time"),
    ],
)
def test_out_of_range_inputs_exit_one(tmp_path, capsys, command, settings, key):
    # each used to raise out of main, ask for huge arrays, or exit 0 with
    # empty or one-step tables (run.full_2d: ran the removed literal 2-D
    # unity quadrature); now load refuses it before any work
    start = time.perf_counter()
    code, outdir = run(tmp_path, command, *settings)
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not outdir.exists()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("via", ["--set", "--config"])
@pytest.mark.parametrize("command, key", [
    ("unity", "run.p_nodes"), ("fiducial", "run.grid_nodes"), ("fiducial", "run.samples"),
    ("selftest", "run.seed"), ("evolve", "run.steps"), ("fiducial", "run.max_harmonic"),
    ("fiducial", "run.profile_points"),
])
def test_retired_keys_exit_one(tmp_path, capsys, command, key, via):
    # each only set the resolution or seed of an internal check, or a
    # fiducial output length: verify_unity's node count, moments' 512-node
    # grid, the profile's 720 angles and the harmonics 0..4 are constants,
    # selftest draws no random numbers, and run.total_time sets the steps
    outdir = tmp_path / "out"
    setting = f"{key} = 64"
    if via == "--config":
        (tmp_path / "run.cfg").write_text(setting + "\n")
        argv = [command, "--config", str(tmp_path / "run.cfg")]
    else:
        argv = [command, "--set", setting]
    assert main(argv + ["--set", f"output.dir = {outdir}"]) == 1
    err = capsys.readouterr().err
    assert f"unknown key '{key}'" in err and "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["evolve", "compare"])
@pytest.mark.parametrize("a", ["1e300", ", ".join(["1"] * 50)])
def test_auto_step_admits_large_force_scales(tmp_path, command, a):
    # the default step used to fail the leapfrog's own stability check
    dt = RunConfig.load(command, overrides=[f"model.potential.a = {a}"])["run.dt"]
    code, outdir = run(tmp_path, command, f"model.potential.a = {a}",
                       f"run.total_time = {20 * dt!r}")
    assert code == 0
    table = read_table(outdir / ("compare_classical.csv" if command == "compare"
                                 else "trajectory_enhanced.csv"))
    assert len(table) == 21
    assert all(np.all(np.isfinite(table[name])) for name in table.dtype.names)


def test_auto_step_is_the_coefficient_rule_or_the_stability_limit():
    from circleq.dynamics import max_stable_step

    cfg = RunConfig.load("evolve", overrides=["model.potential.a = 30"])
    assert cfg["run.dt"] == 0.01 / math.sqrt(30.0)
    cfg = RunConfig.load("evolve", overrides=["model.potential.a = 1e300"])
    assert cfg["run.dt"] == max_stable_step("enhanced", cfg.model)
    cfg = RunConfig.load("compare", overrides=["model.potential.a = 1e300"])
    assert cfg["run.dt"] == max_stable_step("classical", cfg.model)
    cfg = RunConfig.load("evolve", overrides=["model.potential.a = 1e300", "run.kind = quantum"])
    assert cfg["run.dt"] == 0.01 / math.sqrt(1e300)


@pytest.mark.parametrize("command", ["fiducial", "unity", "hamiltonian", "evolve", "compare"])
def test_tiny_action_units_run(tmp_path, command):
    # r/hbar = p0/hbar = 1 in units where the product hbar r underflows
    code, _ = run(tmp_path, command, "model.hbar = 1e-200", "model.r = 1e-200", "run.p0 = 1e-200")
    assert code == 0


def test_main_builds_one_parser_and_keeps_calls_apart(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    code_a, out_a = run(tmp_path / "a", "fiducial", "run.cutoff = 3")
    code_b, out_b = run(tmp_path / "b", "fiducial")
    assert code_a == code_b == 0
    assert read_table(out_a / "fiducial_coefficients.csv").size == 7
    assert read_table(out_b / "fiducial_coefficients.csv").size == 2 * default_cutoff(1.0) + 1
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == f"circleq {cli.__version__}"


def test_benchmark_jobs_load(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS.values():
        for smoke in (True, False):
            for job in workload.pass_jobs(0, 0, smoke) + [workload.warmup_job(0, smoke)]:
                args = cli.build_parser().parse_args(job.argv(tmp_path))
                RunConfig.load(args.command, args.config, args.overrides)


@pytest.mark.parametrize("kind", ["classical", "enhanced", "quantum"])
def test_evolve_takes_its_horizon_from_total_time(tmp_path, kind):
    # round(total_time / dt) steps, and 1000 steps when total_time is auto
    for total, rows in (("0.5", 51), ("auto", 1001)):
        code, outdir = run(tmp_path / total, "evolve", f"run.kind = {kind}", "run.dt = 0.01",
                           f"run.total_time = {total}")
        assert code == 0
        table = read_table(outdir / f"trajectory_{kind}.csv")
        assert len(table) == rows
        assert table["t"][-1] == pytest.approx(0.01 * (rows - 1), rel=1e-12)


def test_evolve_kinds(tmp_path):
    code, outdir = run(
        tmp_path, "evolve",
        "model.potential.a = 1.0", "run.kind = classical",
        "run.q0 = 2.74", "run.p0 = 0.0", "run.total_time = 2",
    )
    assert code == 0
    table = read_table(outdir / "trajectory_classical.csv")
    assert len(table) == 201
    assert np.max(np.abs(table["energy"] - table["energy"][0])) < 1e-5

    code, outdir_q = run(
        tmp_path / "q", "evolve",
        "run.kind = quantum", "model.r = 4.0", "run.total_time = 0.5",
    )
    assert code == 0
    quantum = read_table(outdir_q / "trajectory_quantum.csv")
    assert np.max(np.abs(quantum["norm"] - 1.0)) < 1e-9


@pytest.mark.parametrize("q0, chart", [pytest.param(q0, chart, id=q0) for q0, chart in (
    ("10", float(wrap_angle(10.0))), ("-9.5", float(wrap_angle(-9.5))), ("0.7", 0.7))])
def test_every_flow_starts_from_the_chart_angle(tmp_path, q0, chart):
    # run.q0 is wrapped into [-pi, pi) once, and one already there is kept:
    # the leapfrog flows start at that angle and the quantum side at the
    # coherent state there, bit for bit
    model = ("model.r = 2.5", "model.hbar = 0.1", "model.alpha = 0.3", "model.potential.a = 1.0")
    start = ("run.p0 = 0.37", f"run.q0 = {q0}", "run.dt = 0.01", "run.total_time = 0.2")
    tables = {}
    for kind in ("classical", "enhanced", "quantum"):
        code, outdir = run(tmp_path / kind, "evolve", *model, *start, f"run.kind = {kind}")
        assert code == 0
        tables[kind] = read_table(outdir / f"trajectory_{kind}.csv")
    code, outdir = run(tmp_path / "compare", "compare", *model, *start)
    assert code == 0
    compared = {kind: read_table(outdir / f"compare_{kind}.csv")
                for kind in ("classical", "enhanced", "quantum")}
    for kind in ("classical", "enhanced"):
        assert tables[kind]["q_unwrapped"][0] == compared[kind]["q_unwrapped"][0] == chart
    cfg = RunConfig.load("evolve", overrides=(*model, *start, "run.kind = quantum"))
    state = coherent_state(cfg.spec, cfg.basis, 0.37, chart)
    trace = evolve_quantum(build_hamiltonian(cfg.potential, cfg.basis), state, 0.01, 20)
    for table in (tables["quantum"], compared["quantum"]):
        assert (table["cos_q"][0], table["sin_q"][0]) == (trace.cos_q[0], trace.sin_q[0])


def test_compare_free_momentum_columns(tmp_path):
    code, outdir = run(
        tmp_path, "compare",
        "model.r = 8.0", "model.alpha = 0.25",
        "run.p0 = 2.3", "run.q0 = -0.5",
        "run.total_time = 0.5", "run.dt = 0.01",
    )
    assert code == 0
    classical = read_table(outdir / "compare_classical.csv")
    enhanced = read_table(outdir / "compare_enhanced.csv")
    quantum = read_table(outdir / "compare_quantum.csv")
    # identical after the twist shift
    assert np.max(np.abs(classical["p"] - enhanced["p"])) < 1e-12
    assert np.max(np.abs(quantum["mean_p"] - (enhanced["p"] + 0.25))) < 1e-9
    summary = read_table(outdir / "compare_summary.csv")
    assert float(summary["max_momentum_deviation"]) < 1e-9


def test_compare_deviation_decreases_with_localization(tmp_path):
    # sharper states (growing r/hbar at fixed r, so both spreads shrink)
    # track the classical phase longer
    summaries = []
    for ratio in (2, 10, 50):
        _, outdir = run(
            tmp_path / f"z{ratio}", "compare",
            f"model.hbar = {1.0 / ratio}", "model.r = 1.0",
            "model.alpha = 0.25", "model.potential.a = 1.0",
            "run.q0 = 2.3416", "run.p0 = 0.0",
            "run.total_time = 5.2", "run.dt = 0.01",
        )
        summaries.append(float(read_table(outdir / "compare_summary.csv")["max_phase_deviation"]))
    assert summaries[0] > summaries[1] > summaries[2]


def test_compare_alpha_sweep_with_compensation(tmp_path):
    # compensated initial momenta: the enhanced columns coincide after the
    # twist shift, whatever alpha
    tracks = []
    for alpha in (0.0, 0.5):
        _, outdir = run(
            tmp_path / f"a{alpha}", "compare",
            "model.r = 4.0", f"model.alpha = {alpha}",
            "model.potential.a = 1.0",
            "run.q0 = 0.5", f"run.p0 = {0.8 - alpha}",
            "run.total_time = 1.0", "run.dt = 0.01",
        )
        table = read_table(outdir / "compare_enhanced.csv")
        tracks.append((table["q_unwrapped"], table["p"] + alpha))
    assert np.max(np.abs(tracks[0][0] - tracks[1][0])) < 1e-10
    assert np.max(np.abs(tracks[0][1] - tracks[1][1])) < 1e-10


def test_unrepresentable_state_exits_two(tmp_path, capsys):
    # a weakly concentrated state with a non-integer boost leaks spectral
    # weight past any reasonable lattice edge
    code, _ = run(
        tmp_path, "compare",
        "model.r = 1.0", "run.p0 = 0.3", "run.total_time = 0.1",
    )
    assert code == 2
    assert "numerical contract" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "evolve"])
def test_fractional_boost_message_names_its_keys(tmp_path, capsys, command):
    # compare and quantum evolve size the lattice for the boost and ignore
    # run.cutoff; the 1/|n| tail of a fractional boost at small r/hbar is
    # what leaks, so the message names p0, r and hbar, not the cutoff
    code, _ = run(tmp_path, command, "run.p0 = 0.5", "run.kind = quantum")
    assert code == 2
    err = capsys.readouterr().err
    assert "fractional boost" in err and "cutoff" not in err
    assert all(key in err for key in ("run.p0", "model.r", "model.hbar"))


def test_selftest_failure_exits_two(monkeypatch, capsys):
    import circleq.cli as climod

    monkeypatch.setattr(
        climod, "_selftest_checks", lambda: [("doomed", lambda: False)]
    )
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert "FAIL doomed" in captured.out
    assert "doomed" in captured.err


def test_environment_variable_overrides_outdir(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv(OUTDIR_ENV, str(target))
    code = main(["fiducial", "--set", "output.dir = should-not-be-used"])
    assert code == 0
    assert (target / "fiducial_moments.csv").exists()
    assert not (tmp_path / "should-not-be-used").exists()


def test_selftest_passes(tmp_path, capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"ok   {name}" for name in ("fiducial-normalization", "fiducial-centering",
                                  "unity-diagonal", "coherent-energy", "free-spectrum")
    ]


def test_selftest_writes_nothing(tmp_path, monkeypatch):
    outdir = tmp_path / "out"
    outdir.mkdir()
    monkeypatch.setenv(OUTDIR_ENV, str(outdir))
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 0
    assert list(tmp_path.iterdir()) == [outdir] and not any(outdir.iterdir())


def _wrap(monkeypatch, module, name, change):
    """Replace ``circleq.<module>.<name>`` by a function that changes what it returns."""
    owner = importlib.import_module(f"circleq.{module}")
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: change(original(*args, **kwargs)))


def _shifted(field, delta):
    return lambda value: dataclasses.replace(value, **{field: getattr(value, field) + delta})


def _shifted_entry(index, delta):
    return lambda values: tuple(value + delta * (i == index) for i, value in enumerate(values))


# each selftest check, and a corruption of the production value it reads
SELFTEST_CORRUPTIONS = {
    "fiducial-normalization": [("cli", "normalization", lambda norm: 1.001 * norm)],
    # moments returns (mean_q, mean_p, var_p)
    "fiducial-centering": [("cli", "moments", _shifted_entry(index, delta))
                           for index, delta in ((0, 1e-6), (1, 1e-6), (2, 1e-8))],
    "unity-diagonal": [("cli", "verify_unity", lambda diagonals: 1.01 * diagonals)],
    # the attenuations set the kinetic offset and the enhanced potential
    "coherent-energy": [("enhanced", "attenuations", lambda rho: (1.0 + 1e-8) * rho)],
    "free-spectrum": [("cli", "build_hamiltonian", _shifted("diagonal", 1e-6))],
}


@pytest.mark.parametrize("name, corruption", [
    pytest.param(name, corruption, id=f"{name}-{index}")
    for name, cases in SELFTEST_CORRUPTIONS.items() for index, corruption in enumerate(cases)
])
def test_selftest_check_fails_on_a_corrupted_value(monkeypatch, capsys, name, corruption):
    # a check that cannot fail checks nothing; each fails alone
    _wrap(monkeypatch, *corruption)
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if not line.startswith("ok")] == [f"FAIL {name}"]
    assert name in captured.err


def test_plot_scripts_compile(tmp_path):
    for command, script in (
        ("fiducial", "plot_fiducial.py"),
        ("unity", "plot_unity.py"),
        ("compare", "plot_compare.py"),
    ):
        settings = []
        if command == "compare":
            settings = ["model.r = 4.0", "run.total_time = 0.1", "run.dt = 0.01"]
        _, outdir = run(tmp_path / command, command, *settings)
        source = (outdir / script).read_text()
        compile(source, script, "exec")
