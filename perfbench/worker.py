"""One benchmark process: set up a workload, run it, check it, report as JSON.

Started by run.py in a fresh interpreter, so peak memory is this process's
own. `--phase setup` only builds the inputs (run.py times the whole process
for setup_s). `--phase run` builds the inputs, then:

  --trace 0  runs floor(--seconds / nominal_s) instances, at least one
             (one experiment call at a time, closed loop), wrapping only the
             layers the output checks read. nominal_s is the workload's
             instance time on the reference host, so a run lasts about
             --seconds there while its work does not depend on the
             program's speed;
  --trace 1  runs instance 0 once untraced and once with every layer
             wrapped, and derives the per-layer metrics from the spans.

An instance that raises a package error counts as a failed operation and
the run goes on with the next instance.

Usage: python3 perfbench/worker.py --workload W --seed N --phase run
       --seconds S --trace 0|1 --work DIR --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import riskscen.risk_region as risk_region  # noqa: E402
from riskscen.cvar_opt import discrete_cvar  # noqa: E402
from riskscen.errors import RiskscenError  # noqa: E402
from riskscen.seeding import child_seed  # noqa: E402
from tracing import CHECKED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPOT_CHECK_POINTS = 256
FEAS_TOL = 1e-8
COHERENCE_TOL = 1e-7
SUPPORT_TOL = 1e-9
# Instances tried before a run gives up on getting one that completes.
MAX_TRIES = 3


class Checks:
    """Counts attempted and failed output checks; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spot_checked = 0

    def add(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def check_solution(checks: Checks, layer: str, args: tuple, sol) -> None:
    """Status, feasibility and (for LP-backed solves) LP/CVaR coherence."""
    problem = args[0]
    if sol.status != "optimal" or sol.x is None:
        checks.add(f"{layer}: status {sol.status}", False)
        return
    x = np.asarray(sol.x, dtype=float)
    region = problem.region
    feasible = (abs(x.sum() - region.capital) <= FEAS_TOL
                and bool(np.all(x >= region.lower - FEAS_TOL))
                and bool(np.all(x <= region.upper + FEAS_TOL))
                and (region.m == 0 or bool(np.all(region.A @ x <= region.b + FEAS_TOL))))
    if problem.mode == "P1":
        feasible = feasible and float(problem.mu @ x) >= problem.tau - FEAS_TOL
    if problem.cardinality is not None:
        feasible = feasible and int(np.sum(np.abs(x) > SUPPORT_TOL)) <= problem.cardinality.max_assets
    checks.add(f"{layer}: infeasible x", feasible)
    if layer != "cvar_opt.solve_exact_elliptical":
        scenarios = args[1]
        cvar = discrete_cvar(scenarios, x, problem.beta)
        checks.add(f"{layer}: |lp_objective - discrete_cvar| = {abs(sol.lp_objective - cvar):.3g}",
                   abs(sol.lp_objective - cvar) <= COHERENCE_TOL)


def spot_check(checks: Checks, classified: list) -> None:
    """Re-classify evenly spaced recorded points without shortcuts."""
    classify = getattr(risk_region.classify_mask, "__wrapped__", risk_region.classify_mask)
    picks = np.unique(np.linspace(0, len(classified) - 1, SPOT_CHECK_POINTS).astype(int))
    for i in picks:
        region, y, flag = classified[i]
        exact = bool(classify(region, y[None, :], use_shortcuts=False)[0])
        checks.add(f"classify_mask point {i}: shortcut {flag} vs exact {exact}", exact == flag)
    checks.spot_checked = len(picks)


def run_instance(wl, inputs, seed: int, index: int, work: Path, tracer: Tracer, checks: Checks):
    """One timed experiment call plus its output checks."""
    out = work / f"out-{index}"
    out.mkdir()
    tracer.clear_records()
    t0 = perf_counter()
    try:
        returned = wl.call(inputs, child_seed(seed, index), out)
    except RiskscenError as exc:
        wall = perf_counter() - t0
        checks.add(f"instance {index}: {type(exc).__name__}: {exc}", False)
        shutil.rmtree(out)
        return {"wall": wall, "ok": False}
    wall = perf_counter() - t0
    checks.add(f"instance {index}", True)
    res = wl.read(inputs, out, returned, tracer.solutions)
    for layer, args, sol in tracer.solutions:
        check_solution(checks, layer, args, sol)
    for what, ok in res.pop("checks"):
        checks.add(what, ok)
    # The first completed instance of a run supplies the spot-checked points.
    if tracer.classified and not checks.spot_checked:
        spot_check(checks, tracer.classified)
    res["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    res["wall"] = wall
    res["ok"] = True
    shutil.rmtree(out)
    return res


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except OSError:
        commit = "unavailable"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": commit, "seed": args.seed, "workload": args.workload}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.phase == "setup":
        wl.setup(work)
        return 0

    checks = Checks()
    checker = Tracer()
    doc = {"env": environment(args)}
    if args.trace == 0:
        inputs = wl.setup(work)
        checker.install(CHECKED)
        count = max(1, int(args.seconds // wl.nominal_s))
        instances = []
        while len(instances) < count or (not any(r["ok"] for r in instances)
                                         and len(instances) < MAX_TRIES):
            instances.append(run_instance(wl, inputs, args.seed, len(instances), work,
                                          checker, checks))
        checker.uninstall()
        doc["instances"] = instances
    else:
        tracer = Tracer()
        tracer.install()
        inputs = wl.setup(work)
        tracer.uninstall()
        checker.install(CHECKED)
        for index in range(MAX_TRIES):
            plain = run_instance(wl, inputs, args.seed, index, work, checker, checks)
            if plain["ok"]:
                break
        checker.uninstall()
        tracer.install()
        traced = run_instance(wl, inputs, args.seed, index, work, tracer, checks)
        tracer.uninstall()
        same = all(plain.get(k) == traced.get(k) for k in ("result_cvar", "result_gap", "solves"))
        checks.add("traced and untraced results identical", same)
        layers = layer_metrics(tracer.spans, traced["wall"])
        layers["experiments.output_bytes"] = (traced.get("output_bytes", 0), "B")
        layers["trace.overhead_frac"] = (traced["wall"] / plain["wall"] - 1.0, "frac")
        doc["instances"] = [plain, traced]
        doc["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        if args.spans:
            tracer.write(args.spans)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["spot_checked"] = checks.spot_checked
    doc["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                     "failures": checks.failures}
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
