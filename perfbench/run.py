#!/usr/bin/env python3
"""circleq benchmark: drives ``circleq.cli.main(argv)`` in-process, one
client in a closed loop, on seeded job lists.

    python3 perfbench/run.py --workload compare_readme --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each
    python3 perfbench/run.py --smoke

Run it from anywhere inside a checkout; circleq is imported from the
checkout's ``src/``.  Each run of a workload is its own process:

* ``--trace 0`` prints the end-to-end metrics (``wall_s``, ``job_s.p50``,
  ``peak_rss_mb``, ``setup_s``) measured with no tracing.  Times are scaled
  to a reference host speed by a fixed calibration kernel timed between
  jobs (see ``HostSpeed``).
* ``--trace 1`` prints the per-layer metrics from an outside-in trace
  (see ``tracer.py``), and ``trace.overhead_s``.
* ``--smoke`` runs every workload at its smallest size, untraced and traced,
  in a few seconds, and exits 1 if anything fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the environment record.  See ``README.md`` beside this file for the
workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# both import only the standard library, so numpy stays unimported until set-up
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# extra set-up samples per untraced run, each in a fresh process; with the
# run's own set-up that makes five, and setup_s is their median
SETUP_PROBES = 4
# an eigenmode is needed unless the modes weaker than it hold <= this share
MODE_WEIGHT_TAIL = 1e-15
HOT = (
    "qevolve.evolve_quantum", "qevolve.build_hamiltonian", "coherent.verify_unity",
    "coherent.coherent_state", "dynamics.evolve", "enhanced.enhanced_hamiltonian",
    "cli.write_csv",
)
MEMORY_LAYERS = ("qevolve", "coherent", "cli")
# a traced job fails its audit if its spans' self times miss more of it
MAX_UNTRACED_SHARE = 0.01
OBSERVE = ("cli.write_csv", "cli.write_plot_script", "dynamics.evolve", "qevolve.evolve_quantum")
MB = float(1 << 20)
# One BLAS thread: on a host with two vCPUs, a second BLAS thread makes every
# eigh wait on whatever else runs on the other vCPU.
BLAS_THREADS = 1
# HostSpeed.seconds() at the reference host speed; end-to-end times are
# reported as seconds at that speed
REFERENCE_KERNEL_S = 0.25


# environment ------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> tuple:
    """Set the BLAS thread count, whatever the caller's environment says;
    (count, how it was set).  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS, "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set by the benchmark"


def environment(seed: int, threads: tuple) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "circleq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads[0],
        "blas_threads_source": threads[1],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# host speed -------------------------------------------------------------


class HostSpeed:
    """A fixed kernel that is timed between jobs to follow the host's speed.

    The host's speed changes in phases of seconds to minutes: a process on
    the other vCPU, or load elsewhere on the machine, can double a job's
    time.  Such a phase slows this kernel as much as the jobs around
    it, so ``job seconds * REFERENCE_KERNEL_S / kernel seconds`` is the job's
    time at the reference speed, steady across phases.  The kernel mixes what
    circleq jobs spend their time on -- a dense symmetric ``eigh``, a large
    elementwise ``sinc`` and Python float formatting -- and uses only numpy,
    so no change to circleq changes it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(5492)
        matrix = rng.standard_normal((600, 600))
        self.matrix = matrix + matrix.T
        self.wave = rng.standard_normal(4_000_000)
        self.samples = []

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        np.linalg.eigh(self.matrix)
        wave = np.sinc(self.wave)
        wave *= self.wave
        float(wave.sum())
        "\n".join([f"{i * 0.1!r},{i * 0.3!r}" for i in range(20000)])
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, probes: int = 3) -> float:
        """REFERENCE_KERNEL_S over the median of ``probes`` fresh timings."""
        return REFERENCE_KERNEL_S / statistics.median(self.seconds() for _ in range(probes))


# running jobs -----------------------------------------------------------


@dataclass
class JobResult:
    job: object
    outdir: Path
    seconds: float
    code: object
    error: str | None
    stdout: str
    stderr: str


def run_job(cli, job, outdir: Path) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(job.argv(outdir))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return JobResult(job, outdir, seconds, code, error, out.getvalue(), err.getvalue())


def run_pass(cli, jobs, workdir: Path, label: str, tracer=None):
    """Run the jobs back to back; (wall seconds, results)."""
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(cli, job, workdir / f"{label}-{index}"))
    return time.perf_counter() - start, results


def check(result: JobResult, reference: bool = False) -> str | None:
    """None if the job succeeded and its outputs verify, else the reason."""
    import verify  # imports numpy, so only after set-up has been timed

    if result.error is not None:
        return result.error
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[-300:]}"
    try:
        verify.verify_job(result.job.params, result.outdir, result.stdout.splitlines(), reference)
    except Exception as exc:  # any verifier error fails the job and is reported
        return f"{type(exc).__name__}: {exc}"
    return None


@dataclass
class Tally:
    """Jobs attempted in a run and the ones that failed, with their argv."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def fail(self, argv: list, reason: str):
        self.failures.append({"argv": argv, "reason": reason})
        print(f"FAILED {' '.join(argv)}\n  {reason}", file=sys.stderr)


def settle(results, workload, tally: Tally) -> None:
    """Verify a pass, count its jobs and failures, delete its outputs."""
    for index, result in enumerate(results):
        tally.attempted += 1
        reason = check(result, reference=workload.reference_first and index == 0)
        if reason is not None:
            tally.fail(result.job.argv(result.outdir), reason)
        shutil.rmtree(result.outdir, ignore_errors=True)


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import circleq.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"circleq imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, seed: int, smoke: bool, workdir: Path):
    """Import circleq and run one untimed warm-up job: (cli, seconds, result)."""
    start = time.perf_counter()
    cli = import_cli()
    result = run_job(cli, workload.warmup_job(seed, smoke), workdir / "warmup")
    return cli, time.perf_counter() - start, result


def setup_probe(workload, seed: int, smoke: bool) -> dict:
    """One set-up sample in a fresh process, raw and at reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"argv": argv, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return {"argv": argv, **json.loads(lines[-1])}


# measurement ------------------------------------------------------------


def measure_plain(cli, workload, seed, seconds, smoke, workdir, tally, speed):
    """Closed loop of passes for ``seconds``, the host-speed kernel timed
    before the first job of a pass and after every job.

    Returns (pass walls, {command: job times}), each raw and at reference
    speed; a job is scaled by the mean of the kernel times on either side.
    """
    walls, job_times = {"raw": [], "ref": []}, {"raw": {}, "ref": {}}
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        jobs = workload.pass_jobs(seed, index, smoke)
        results, raw, ref = [], 0.0, 0.0
        before = speed.seconds()
        for number, job in enumerate(jobs):
            result = run_job(cli, job, workdir / f"pass{index}-{number}")
            after = speed.seconds()
            scaled = result.seconds * REFERENCE_KERNEL_S / ((before + after) / 2)
            before = after
            raw += result.seconds
            ref += scaled
            job_times["raw"].setdefault(job.command, []).append(result.seconds)
            job_times["ref"].setdefault(job.command, []).append(scaled)
            results.append(result)
        walls["raw"].append(raw)
        walls["ref"].append(ref)
        settle(results, workload, tally)
        index += 1
        # start another pass only if it should end inside the budget
        if time.perf_counter() - start + (time.perf_counter() - pass_start) > seconds:
            return walls, job_times


def observed_counts(tracer) -> dict:
    """Work counts from wrapped-call arguments, results and written files;
    computed after the job, outside every span."""
    import numpy as np

    counts = {"dynamics.steps": 0, "qevolve.steps": 0, "qevolve.dim_max": 0,
              "cli.rows_written": 0, "cli.bytes_written": 0, "needed": 0, "dims": 0}
    for name, fn, args, kwargs, result in tracer.observed:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        if name in ("cli.write_csv", "cli.write_plot_script"):
            path = Path(result)
            counts["cli.bytes_written"] += path.stat().st_size
            if name == "cli.write_csv":
                with open(path, "rb") as handle:
                    counts["cli.rows_written"] += sum(1 for _ in handle) - 3
        elif name == "dynamics.evolve":
            counts["dynamics.steps"] += int(bound["steps"])
        elif name == "qevolve.evolve_quantum":
            matrix, psi = bound["ham"].matrix, bound["initial"].coeffs
            dim = matrix.shape[0]
            counts["qevolve.steps"] += int(bound["steps"])
            counts["qevolve.dim_max"] = max(counts["qevolve.dim_max"], dim)
            _, modes = np.linalg.eigh(matrix)
            weights = np.sort(np.abs(modes.conj().T @ psi) ** 2)
            tail = np.cumsum(weights) <= MODE_WEIGHT_TAIL * weights.sum()
            counts["needed"] += dim - int(np.count_nonzero(tail))
            counts["dims"] += dim
    return counts


def layer_metrics(tracer, results) -> tuple:
    """(per-layer metrics of one traced pass, largest share of a job's
    outside-measured time that its spans' self times do not cover,
    [problems with the pass's spans])."""
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.errors"] = 0
    for name in HOT:
        metrics[f"{name}.self_s"] = 0.0
    per_job = {}
    for name, layer, job, seconds, failed in tracer.self_times():
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_s"] += seconds
        metrics[f"{layer}.errors"] += int(failed)
        if name in HOT:
            metrics[f"{name}.self_s"] += seconds
        per_job[job] = per_job.get(job, 0.0) + seconds
    roots = tracer.root_names()
    problems, worst = [], 0.0
    for index, result in enumerate(results):
        argv = " ".join(result.job.argv(result.outdir))
        if roots.get(index) != ["cli.main"]:
            problems.append(f"root spans {roots.get(index)}, not one cli.main: {argv}")
        untraced = abs(result.seconds - per_job.get(index, 0.0)) / result.seconds
        worst = max(worst, untraced)
        if untraced > MAX_UNTRACED_SHARE:
            problems.append(f"self times miss {untraced:.1%} of the job: {argv}")
    return metrics, worst, problems


def measure_traced(cli, workload, seed, seconds, smoke, workdir, tally):
    """Pairs of (untraced, traced) passes of the same jobs, alternating which
    goes first, then one tracemalloc pass.  Returns the per-layer metrics.

    Every traced pass is also audited as one attempted operation: each job
    must have one ``cli.main`` root span, its layer self times must cover its
    outside-measured time, and the workload's expected layers must be called.
    """
    passes, overheads, untraced, spans = [], [], [], []
    counts = {}
    start = time.perf_counter()
    index = 0
    while True:
        pair_start = time.perf_counter()
        jobs = workload.pass_jobs(seed, index, smoke)
        walls = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            label = f"pass{index}-{'traced' if traced else 'plain'}"
            if traced:
                tracer = Tracer(observe=OBSERVE)
                with tracer:
                    walls[True], results = run_pass(cli, jobs, workdir, label, tracer)
                metrics, worst, problems = layer_metrics(tracer, results)
                problems += [f"no {layer} function was called" for layer in workload.layers
                             if metrics[f"{layer}.calls"] == 0]
                tally.attempted += 1
                if problems:
                    tally.fail(["trace-audit", label], "; ".join(problems))
                untraced.append(worst)
                passes.append(metrics)
                spans += [(index, *span) for span in tracer.spans]
                # counts read the written files, so they come before settle()
                for key, value in observed_counts(tracer).items():
                    counts.setdefault(key, []).append(value)
            else:
                walls[False], results = run_pass(cli, jobs, workdir, label)
            settle(results, workload, tally)
        overheads.append(walls[True] - walls[False])
        index += 1
        if time.perf_counter() - start + (time.perf_counter() - pair_start) > seconds:
            break

    memory = Tracer(memory=True)
    with memory:
        _, results = run_pass(cli, workload.pass_jobs(seed, 0, smoke), workdir, "memory")
    settle(results, workload, tally)

    per_layer = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    for layer in MEMORY_LAYERS:
        per_layer[f"{layer}.peak_mb"] = memory.peaks.get(layer, 0) / MB
    for key in ("dynamics.steps", "qevolve.dim_max", "qevolve.steps",
                "cli.rows_written", "cli.bytes_written"):
        per_layer[key] = statistics.median(counts[key])
    dims = sum(counts["dims"])
    per_layer["qevolve.mode_weight_frac"] = sum(counts["needed"]) / dims if dims else 0.0
    per_layer["trace.overhead_s"] = statistics.median(overheads)
    diagnostics = {
        "traced_passes": len(passes),
        "max_untraced_share": max(untraced),
        "layer_share": layer_shares(per_layer),
    }
    return per_layer, diagnostics, spans


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as handle:
        handle.write("pass,id,name,layer,start,end,parent,job,failed\n")
        for row in spans:
            handle.write(",".join(str(x) for x in row) + "\n")


def time_stats(samples: list) -> dict:
    """The median of a set of times, the highest percentile that has at
    least ten samples above it, the floor, and the sample count."""
    ordered = sorted(samples)
    stats = {"samples": len(ordered), "median": statistics.median(ordered), "min": ordered[0]}
    if len(ordered) > 10:
        rank = len(ordered) - 11  # ten samples lie above this one
        stats[f"p{100 * (rank + 1) // len(ordered)}"] = ordered[rank]
    return stats


def layer_shares(per_layer: dict) -> dict:
    total = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    shares = {layer: per_layer[f"{layer}.self_s"] / total for layer in LAYERS}
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


# one run ----------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SPANS_DIR = ROOT / ".perfbench-spans"


def run_workload(name, seed, seconds, trace, smoke=False, probes=SETUP_PROBES):
    """One benchmark run; returns (result object, report dict)."""
    workload = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tally = Tally()
    try:
        cli, own_setup, warmup = set_up(workload, seed, smoke, workdir)
        settle([warmup], workload, tally)
        if trace:
            start = time.perf_counter()
            metrics, diagnostics, spans = measure_traced(cli, workload, seed, seconds, smoke,
                                                         workdir, tally)
            diagnostics["measured_s"] = time.perf_counter() - start
            path = SPANS_DIR / f"{name}-seed{seed}{'-smoke' if smoke else ''}.csv.gz"
            write_spans(path, spans)
            diagnostics["spans"] = str(path.relative_to(ROOT))
            units = {key: per_layer_unit(key) for key in metrics}
        else:
            speed = HostSpeed()
            setups = {"raw": [own_setup], "ref": [own_setup * speed.scale()]}
            for _ in range(probes):
                probe = setup_probe(workload, seed, smoke)
                tally.attempted += 1
                if probe["error"]:
                    tally.fail(probe["argv"], probe["error"])
                else:
                    setups["raw"].append(probe["setup_s"])
                    setups["ref"].append(probe["setup_ref_s"])
            walls, job_times = measure_plain(cli, workload, seed, seconds, smoke, workdir,
                                             tally, speed)
            metrics = {
                "wall_s": statistics.median(walls["ref"]),
                # each job kind counts once, however many jobs of it a pass has
                "job_s.p50": statistics.fmean(
                    statistics.median(t) for t in job_times["ref"].values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setups["ref"]),
            }
            diagnostics = {
                "passes": len(walls["ref"]),
                "pass_wall_s": {key: time_stats(v) for key, v in walls.items()},
                "job_s_by_command": {key: {kind: time_stats(t) for kind, t in by.items()}
                                     for key, by in job_times.items()},
                "setup_s.samples": setups,
                "host_kernel_s": time_stats(speed.samples),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    report = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
              "failed_frac": failed / tally.attempted, "diagnostics": diagnostics,
              "failures": tally.failures}
    return result, report


def per_layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_frac"):
        return "1"
    if key.endswith("bytes_written"):
        return "bytes"
    return "count"


def print_result(result, report, env):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':<40} {report['failed_frac']:.6g} 1")
    print("report " + json.dumps(report))
    print("env " + json.dumps(env))
    print(json.dumps(result))


def smoke(seed: int, threads: tuple) -> int:
    """Every workload's code path, the verifier and the tracer, smallest sizes."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(name, seed, 0, trace, smoke=True, probes=1)
            print_result(result, report, environment(seed, threads))
            ok = ok and result["correct"] and all(
                isinstance(m["value"], (int, float)) for m in result["metrics"].values()
            )
    print("smoke " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    # circleq would write every job's output there instead of to output.dir
    os.environ.pop("CIRCLEQ_OUTDIR", None)
    if not (SRC / "circleq" / "__init__.py").is_file():
        print(f"perfbench: no circleq sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            workload = WORKLOADS[args.workload]
            _, seconds, warmup = set_up(workload, args.seed, args.smoke, workdir)
            reason = check(warmup)
            scaled = seconds * HostSpeed().scale()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds, "setup_ref_s": scaled, "error": reason}))
        return 0

    if args.workload is None and not args.smoke:
        worst = 0
        for name in WORKLOADS:
            sys.stdout.flush()
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
            worst = max(worst, proc.returncode)
        return worst

    try:
        if args.smoke:
            return smoke(args.seed, threads)
        # circleq is first imported here, inside the timed set-up
        result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"perfbench: cannot import circleq: {exc}", file=sys.stderr)
        return 2
    print_result(result, report, environment(args.seed, threads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
