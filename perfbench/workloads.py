"""Seeded job lists for the two benchmark workloads.

A job is one ``circleq <command> --set key=value ...`` invocation.  The
benchmark draws every job from its seed and hands circleq nothing but the
generated ``--set`` argv; the parameters are kept beside the argv so the
verifier knows what the output must satisfy.

A *pass* is the workload's fixed job list (fixed kinds and sizes; the random
parameters are drawn afresh for each pass from the seed).  The time to finish
one pass is the benchmark's time to solution.  Only the standard library is
imported here, so building jobs costs nothing measurable and never touches
numpy before set-up is timed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Job:
    command: str
    sets: tuple  # ("key=value", ...) in argv order
    params: dict = field(compare=False)  # everything the verifier needs

    def argv(self, outdir) -> list:
        argv = [self.command]
        for item in (*self.sets, f"output.dir={outdir}"):
            argv += ["--set", item]
        return argv


def _fmt(x: float) -> str:
    return repr(float(x))


def _job(command: str, model: dict, run: dict, **extra) -> Job:
    sets = tuple(f"{k}={v}" for k, v in {**model, **run}.items())
    params = {"command": command, "model": dict(model), "run": dict(run), **extra}
    return Job(command, sets, params)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_pass: Callable[[random.Random, bool], list]  # (rng, smoke) -> one pass
    # layers every traced pass must call; a pass that misses one fails
    layers: tuple = ()
    # the pass's first job is also checked against the independent
    # reference propagation (compare jobs only)
    reference_first: bool = False

    def rng(self, seed: int, stream: str) -> random.Random:
        # one stream per pass, so pass k draws the same jobs in every run
        return random.Random(f"circleq-perfbench:{self.name}:{seed}:{stream}")

    def pass_jobs(self, seed: int, index: int, smoke: bool = False) -> list:
        return self.make_pass(self.rng(seed, f"pass{index}"), smoke)

    def warmup_job(self, seed: int, smoke: bool = False) -> Job:
        return self.make_pass(self.rng(seed, "warmup"), smoke)[0]


# compare_readme --------------------------------------------------------
# The README model: r = 2.5, hbar = 0.05 (r/hbar = 50), pendulum a1 = 1,
# dt = 0.002, total_time = 4.6 -> 2300 steps at basis dim 819-839.  Every
# job draws its own twist, so no two jobs share a Hamiltonian matrix.  The
# pass ends with the model's H_cs surface on a grid finer than the default,
# as for a phase portrait: the only job that calls the enhanced layer's
# functions.


def _compare_pass(rng: random.Random, smoke: bool) -> list:
    if smoke:
        r, hbar, total, count, grid, q_points = 0.5, 0.1, 0.2, 1, "-3, 3, 25", 73
    else:
        r, hbar, total, count, grid, q_points = 2.5, 0.05, 4.6, 4, "-3, 3, 49", 145
    jobs = []
    for _ in range(count):
        alpha = rng.random()
        q0 = rng.uniform(-math.pi, math.pi)
        p0 = rng.uniform(-0.5, 0.5)
        run = {
            "run.dt": "0.002",
            "run.total_time": _fmt(total),
            "run.q0": _fmt(q0),
            "run.p0": _fmt(p0),
        }
        jobs.append(_job("compare", _readme_model(r, hbar, alpha), run,
                         steps=int(round(total / 0.002))))
    jobs.append(_job("hamiltonian", _readme_model(r, hbar, rng.random()), {
        "run.p_grid": grid, "run.q_points": str(q_points),
    }))
    return jobs


def _readme_model(r: float, hbar: float, alpha: float) -> dict:
    return {
        "model.r": _fmt(r),
        "model.hbar": _fmt(hbar),
        "model.alpha": _fmt(alpha),
        "model.potential.a": "1.0",
    }


# unity_r10 -------------------------------------------------------------
# ``unity`` at its defaults (hbar = 1, full_2d = true, cutoff factors
# 5, 10, 20, 40) with r = 10; each job draws its twist.


def _unity_pass(rng: random.Random, smoke: bool) -> list:
    r, count = (1.0, 1) if smoke else (10.0, 2)
    return [
        _job("unity", {"model.r": _fmt(r), "model.alpha": _fmt(rng.random())}, {},
             factors=(5.0, 10.0, 20.0, 40.0))
        for _ in range(count)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare_readme",
            "README compare at r/hbar=50: eigh-bound qevolve, two leapfrog flows and CSV "
            "emission, a fresh twist (own matrix) per job; then its H_cs phase portrait",
            _compare_pass,
            layers=("qevolve", "dynamics", "enhanced", "cli"),
            reference_first=True,
        ),
        Workload(
            "unity_r10",
            "unity at defaults with r=10: the (P, D, S) sinc tensor in "
            "coherent.verify_unity sets time and peak memory; no qevolve",
            _unity_pass,
            layers=("coherent", "cli"),
        ),
    )
}
