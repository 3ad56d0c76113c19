"""Golden-output test: every subcommand on a fixed set of small configs.

The CSVs under ``tests/golden/<config>/`` were written by the CLI with the
``# generated:`` timestamp line removed; ``written.txt`` lists the files
each run reported, in order.  A run must reproduce the schema line, the
header, the row count and the file order byte for byte, and every value to
``1e-12 * max(1, |x|)``.

Regenerate (only for an intended, documented output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest

from circleq.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOLERANCE = 1e-12

CONFIGS = {
    "fiducial_default": ("fiducial",),
    "fiducial_r2_alpha03": ("fiducial", "model.r = 2.0", "model.alpha = 0.3"),
    "unity_alpha025": ("unity", "model.alpha = 0.25"),
    "hamiltonian_two_harmonics": (
        "hamiltonian", "model.potential.a = 1.0, 0.3", "model.alpha = 0.2",
        "model.hbar = 0.5", "run.p_grid = -2, 2, 9", "run.q_points = 24",
    ),
    "evolve_classical": (
        "evolve", "run.kind = classical", "model.potential.a = 1.0", "run.total_time = 2",
    ),
    "evolve_enhanced": (
        "evolve", "run.kind = enhanced", "model.potential.a = 1.0, 0.2",
        "model.alpha = 0.3", "run.total_time = 1.826",  # 200 steps of 0.01 / sqrt(1.2)
    ),
    "evolve_quantum_sine": (  # 300 steps of 0.01 / sqrt(1.1)
        "evolve", "run.kind = quantum", "model.r = 2.0", "model.hbar = 0.25",
        "model.potential.a = 0.8", "model.potential.b = 0.0, 0.3", "run.total_time = 2.86",
    ),
    "compare_small": (
        "compare", "model.r = 1.5", "model.hbar = 0.1", "model.alpha = 0.25",
        "model.potential.a = 1.0", "run.q0 = 2.5", "run.p0 = 0.2", "run.total_time = 2.5",
    ),
}


def run_config(name, outdir):
    """Run one config into ``outdir``; the names of the files it reported."""
    command, *settings = CONFIGS[name]
    args = [command, "--set", f"output.dir = {outdir}"]
    for item in settings:
        args += ["--set", item]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(args) == 0
    return [Path(line).name for line in stdout.getvalue().splitlines()]


def stable_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("# generated")]


def assert_rows_close(got, want, where):
    assert len(got) == len(want), f"{where}: row count"
    for index, (row_got, row_want) in enumerate(zip(got, want)):
        a, b = row_got.split(","), row_want.split(",")
        assert len(a) == len(b), f"{where}: row {index} width"
        for x, y in zip(a, b):
            x, y = float(x), float(y)
            assert abs(x - y) <= TOLERANCE * max(1.0, abs(y)), f"{where}: row {index}: {x!r} vs {y!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(tmp_path, name):
    written = run_config(name, tmp_path / "out")
    golden = GOLDEN / name
    assert written == (golden / "written.txt").read_text().split()
    for csv in sorted(golden.glob("*.csv")):
        got, want = stable_lines(tmp_path / "out" / csv.name), stable_lines(csv)
        assert got[:2] == want[:2], f"{csv.name}: schema or header"
        assert_rows_close(got[2:], want[2:], f"{name}/{csv.name}")


def regenerate():
    for name in CONFIGS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as scratch:
            written = run_config(name, Path(scratch))
            for file in written:
                if file.endswith(".csv"):
                    lines = stable_lines(Path(scratch) / file)
                    (target / file).write_text("\n".join(lines) + "\n")
        (target / "written.txt").write_text("\n".join(written) + "\n")
        print(f"{target}: {len(written)} files")


if __name__ == "__main__":
    regenerate()
