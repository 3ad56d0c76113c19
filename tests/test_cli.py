import contextlib
import importlib
import io
import math
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleq.cli as cli
from circleq.cli import OUTDIR_ENV, RunConfig, main, parse_config_text

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
    entries = parse_config_text("model.hbar = 2.0\n# comment\n\nrun.steps=5")
    assert entries == {"model.hbar": "2.0", "run.steps": "5"}
    with pytest.raises(Exception) as info:
        parse_config_text("model.mass = 1.0")
    assert "model.mass" in str(info.value)


def test_config_file_loading(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.r = 2.5\nrun.steps = 17  # inline comment\n")
    cfg = RunConfig.load("evolve", str(cfgfile), overrides=["run.steps = 19"])
    assert cfg.spec.r == 2.5
    assert cfg["run.steps"] == 19


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
    code, outdir = run(tmp_path, "evolve", "run.steps = 5", f"{key} = {value}")
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
        ("fiducial", "run.max_harmonic", "abc"),
    ],
)
def test_rejected_config_leaves_no_output_dir(tmp_path, capsys, command, key, value):
    code, outdir = run(tmp_path, command, "run.steps = 5", f"{key} = {value}")
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
        "run.steps = 5", f"run.p0 = {p0}",
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
    code, outdir = run(tmp_path, command, "run.steps = 5", *settings)
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
    row = read_table(outdir / "fiducial_moments.csv")
    assert abs(float(row["mean_q"])) < 1e-9
    assert float(row["mean_p"]) == pytest.approx(0.3, abs=1e-9)
    assert int(row["envelope_ok"]) == 1
    profile = read_table(outdir / "fiducial_profile.csv")
    assert np.all(profile["density"] <= profile["upper_envelope"] * (1 + 1e-12))
    assert np.all(profile["density"] >= profile["lower_envelope"] * (1 - 1e-12))


@pytest.mark.parametrize("r", ["0", "2.0"])
def test_fiducial_moments_row_reports_the_envelope_check(tmp_path, monkeypatch, r):
    # a failed EnvelopeCheck is falsy, so only r = 0 may stand for "no check"
    from circleq.fiducial import EnvelopeCheck

    monkeypatch.setattr(cli, "gaussian_bound_check", lambda spec, samples:
                        EnvelopeCheck(False, 0.5, -1.5, 2.5))
    code, outdir = run(tmp_path, "fiducial", f"model.r = {r}")
    assert code == 0
    row = stable_lines(outdir / "fiducial_moments.csv")[2].split(",")[-3:]
    assert row == (["1", "0", "0"] if r == "0" else ["0", "-1.5", "2.5"])


def test_fiducial_rerun_is_bit_identical(tmp_path):
    _, out1 = run(tmp_path / "a", "fiducial", "run.seed = 3")
    _, out2 = run(tmp_path / "b", "fiducial", "run.seed = 3")
    for name in ("fiducial_profile.csv", "fiducial_moments.csv",
                 "fiducial_attenuation.csv", "fiducial_coefficients.csv"):
        assert stable_lines(out1 / name) == stable_lines(out2 / name)


def test_numbers_round_trip_at_17_digits(tmp_path):
    _, outdir = run(tmp_path, "fiducial")
    coeffs = read_table(outdir / "fiducial_coefficients.csv")
    from circleq.fiducial import FiducialSpec, momentum_coefficients, default_basis

    spec = FiducialSpec(r=1.0)
    exact = momentum_coefficients(spec, default_basis(spec)).coeffs.real
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


@pytest.mark.parametrize("rows", [1, len(EDGE_FLOATS), 2 * cli.CSV_CHUNK_ROWS + 3])
def test_write_csv_matches_the_per_value_formatter(tmp_path, rows):
    # the chunked %-template writer against one format() call per value,
    # on float edge cases, negative numpy and Python ints, one-row tables
    # and tables that cross chunk boundaries
    rng = np.random.default_rng(rows)
    floats = np.resize(np.array(EDGE_FLOATS), rows) * rng.choice([1.0, -1.0, 1e-300], rows)
    table = {
        "x": floats,
        "n": -np.arange(rows, dtype=np.int64) - 2**40,
        "k": [int(v) for v in rng.integers(-(2**62), 2**62, rows)],
        "y": rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows),
    }
    path = cli.write_csv(tmp_path / "t.csv", "oracle", table)
    assert path == tmp_path / "t.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema: circleq/oracle {cli.SCHEMA_VERSION}"
    assert lines[1].startswith("# generated: ") and lines[2] == "x,n,k,y"
    expected = [",".join(per_value(column[i]) for column in table.values()) for i in range(rows)]
    assert lines[3:] == expected


def test_write_csv_single_values_are_one_row(tmp_path):
    path = cli.write_csv(tmp_path / "s.csv", "single", {"a": -0.0, "ok": True, "m": -7})
    assert path.read_text().splitlines()[3] == "-0,1,-7"


# numpy notes the overflow as it happens; the exit code is what counts here
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_output_exits_two_before_writing(tmp_path, capsys):
    # finite coefficients whose sum overflows used to exit 0 with inf rows
    code, outdir = run(tmp_path, "hamiltonian", "model.potential.a = 9.01e307, 9.01e307")
    assert code == 2
    err = capsys.readouterr().err
    assert "hamiltonian_grid.csv" in err and "Traceback" not in err
    assert not outdir.exists()


def test_unity_ladder_csv(tmp_path):
    code, outdir = run(tmp_path, "unity", "model.alpha = 0.25")
    assert code == 0
    table = read_table(outdir / "unity_defects.csv")
    interior = table["interior_diag_defect"]
    assert np.all(np.diff(interior) < 0.0)
    assert interior[-1] <= 1e-3
    assert np.all(table["offdiag_defect"] <= 1e-10)
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
        if kind in ("bool", "choice", "path"):
            assert span == ({"bool": "true|false", "path": "nonempty path"}.get(kind) or "|".join(bounds))
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
    "run.grid_nodes": "fiducial", "run.max_harmonic": "fiducial", "run.samples": "fiducial",
    "run.profile_points": "fiducial", "output.dir": "fiducial", "run.cutoff": "unity",
    "run.p_cutoff_factors": "unity", "run.p_nodes": "unity", "run.full_2d": "unity",
    "run.kind": "evolve", "run.p_grid": "hamiltonian", "run.q_points": "hamiltonian",
    "run.seed": "selftest",
}


def _key_values(kind, bounds):
    """Unparsable, non-finite, negative, zero and over-cap values of a key,
    then small values inside its range."""
    edges = ["banana", "", "1,,2", "nan", "inf", "-inf", "1, nan", "-1", "-0.5", "0", "auto"]
    if kind in ("bool", "choice"):
        return st.sampled_from(edges + ["maybe"]) | st.sampled_from(bounds or ["true", "off"])
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


@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("fiducial", ("run.samples = 1",), "run.samples"),
        ("fiducial", ("run.samples = 0",), "run.samples"),
        ("fiducial", ("run.max_harmonic = -1",), "run.max_harmonic"),
        ("fiducial", ("run.max_harmonic = 100000000",), "run.max_harmonic"),
        ("fiducial", ("run.grid_nodes = 100000000",), "run.grid_nodes"),
        ("fiducial", ("run.profile_points = 0",), "run.profile_points"),
        ("fiducial", ("run.profile_points = -5",), "run.profile_points"),
        ("unity", ("run.p_cutoff_factors = -1",), "run.p_cutoff_factors"),
        ("unity", ("run.p_cutoff_factors = 1e9",), "run.p_cutoff_factors"),
        ("unity", ("run.p_cutoff_factors = 3000",), "run.p_cutoff_factors"),
        ("unity", ("run.p_nodes = 100000",), "run.p_nodes"),
        ("unity", ("model.hbar = 1e200", "model.r = 1e200"), "model.hbar"),
        ("selftest", ("run.seed = -1",), "run.seed"),
        ("selftest", ("run.q_points = 0",), "run.q_points"),
        ("evolve", ("model.potential.a = 1", "run.dt = 5"), "run.dt"),
        ("compare", ("model.potential.a = 1", "run.dt = 5"), "run.dt"),
        ("hamiltonian", ("run.p_grid = -1, 1, 1e12",), "run.p_grid"),
        ("hamiltonian", ("run.p_grid = -1, 1, 2.5",), "run.p_grid"),
        ("hamiltonian", ("run.q_points = -3",), "run.q_points"),
        ("hamiltonian", ("run.q_points = 0",), "run.q_points"),
        ("compare", ("run.total_time = -1",), "run.total_time"),
        ("compare", ("run.total_time = 0",), "run.total_time"),
        ("compare", ("run.total_time = 1e9",), "run.total_time"),
        ("evolve", ("run.kind = quantum", "model.hbar = 1e200"), "model.hbar"),
        ("fiducial", ("output.dir =",), "output.dir"),
        ("fiducial", ("model.r = 120",), "model.r"),
        ("evolve", ("run.p0 = 1e200",), "run.p0"),
        ("hamiltonian", ("run.p_grid = -1e200, 1, 3",), "run.p_grid"),
        ("compare", ("run.dt = 9e306",), "run.dt"),
        ("evolve", ("run.kind = classical", "model.potential.a = 0, 9e307"), "model.potential.a"),
        ("compare", ("model.hbar = 1e-3", "model.r = 1e-3", "run.p0 = 100"), "model.hbar"),
    ],
)
def test_out_of_range_inputs_exit_one(tmp_path, capsys, command, settings, key):
    # each used to raise out of main, ask for huge arrays, or exit 0 with
    # empty or one-step tables; now load refuses it before any work
    start = time.perf_counter()
    code, outdir = run(tmp_path, command, *settings)
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not outdir.exists()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("command", ["evolve", "compare"])
@pytest.mark.parametrize("a", ["1e300", ", ".join(["1"] * 50)])
def test_auto_step_admits_large_force_scales(tmp_path, command, a):
    # the default step used to fail the leapfrog's own stability check
    code, outdir = run(tmp_path, command, f"model.potential.a = {a}", "run.steps = 20")
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


def test_benchmark_jobs_load(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS.values():
        for smoke in (True, False):
            for job in workload.pass_jobs(0, 0, smoke) + [workload.warmup_job(0, smoke)]:
                args = cli.build_parser().parse_args(job.argv(tmp_path))
                RunConfig.load(args.command, args.config, args.overrides)


def test_evolve_kinds(tmp_path):
    code, outdir = run(
        tmp_path, "evolve",
        "model.potential.a = 1.0", "run.kind = classical",
        "run.q0 = 2.74", "run.p0 = 0.0", "run.steps = 200",
    )
    assert code == 0
    table = read_table(outdir / "trajectory_classical.csv")
    assert len(table) == 201
    assert np.max(np.abs(table["energy"] - table["energy"][0])) < 1e-5

    code, outdir_q = run(
        tmp_path / "q", "evolve",
        "run.kind = quantum", "model.r = 4.0", "run.steps = 50",
    )
    assert code == 0
    quantum = read_table(outdir_q / "trajectory_quantum.csv")
    assert np.max(np.abs(quantum["norm"] - 1.0)) < 1e-9


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
        climod, "_selftest_checks", lambda cfg: [("doomed", lambda: False)]
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
    out = capsys.readouterr().out
    assert out.count("ok  ") >= 7 and "FAIL" not in out


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
