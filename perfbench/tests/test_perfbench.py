"""Checks on the benchmark itself: wrapper coverage, the layer map, determinism.

  python3 -m pytest -q perfbench/tests            # about 5 minutes on 2 cores
  python3 -m pytest -q perfbench/tests -k every_site  # the fast static check only

The slow tests run the real workloads through run.py with --trace 1 and
read the per-layer metrics and the worker report it leaves in .out/.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import riskscen  # noqa: E402
from tracing import LAYERS, Tracer, _package_modules, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Layer -> workloads where its wrapper must record calls ("> 0") or none ("== 0").
# A wrapper missing an import site would otherwise read as a silent zero.
LAYER_MAP = {
    "cones.project.calls": {"case-ghost": ">0", "stability-exact": ">0", "saa-lp": "==0"},
    "cones.project_polytope.calls": {"stability-exact": ">0"},
    "risk_region.classify_mask.points": {"case-ghost": ">0", "stability-exact": ">0",
                                         "saa-lp": "==0"},
    "scenario_gen.aggregation_sampling.calls": {"case-ghost": ">0", "stability-exact": ">0",
                                                "saa-lp": "==0"},
    "cvar_opt.solve_cardinality.nodes": {"case-ghost": ">0", "saa-lp": "==0"},
    "cvar_opt.solve_lp.calls": {"saa-lp": ">0", "stability-exact": ">0", "case-ghost": "==0"},
    "lp.solve.iterations": {"case-ghost": ">0", "saa-lp": ">0", "stability-exact": ">0"},
    "cvar_opt.solve_exact_elliptical.projections": {"stability-exact": ">0"},
    "cvar_opt.discrete_cvar.calls": {"case-ghost": ">0", "saa-lp": ">0"},
    "saa.run_saa.replications": {"case-ghost": ">0", "saa-lp": ">0"},
    "distributions.sample.busy_s": {"case-ghost": ">0", "saa-lp": ">0", "stability-exact": ">0"},
    "distributions.load_scenarios.busy_s": {"case-ghost": ">0"},
    "distributions.fit_from_returns.busy_s": {"case-ghost": ">0", "saa-lp": ">0",
                                              "stability-exact": ">0"},
    "experiments.self_s": {"case-ghost": ">0", "stability-exact": ">0"},
    "experiments.output_bytes": {"case-ghost": ">0", "stability-exact": ">0", "saa-lp": "==0"},
}

# The stress split each workload exists for: layer busy time over traced wall time.
SHARES = {
    "case-ghost": ("risk_region.classify_mask.busy_s", 0.5),
    "saa-lp": ("lp.solve.busy_s", 0.8),
    "stability-exact": ("cvar_opt.solve_exact_elliptical.busy_s", 0.4),
}


def _import_all():
    for info in pkgutil.iter_modules(riskscen.__path__):
        importlib.import_module(f"riskscen.{info.name}")


def test_wrappers_replace_every_site():
    _import_all()
    originals = {}
    for name, module, path in LAYERS:
        owner, attr = _resolve(module, path)
        originals[name] = (owner, attr, getattr(owner, attr))
    tracer = Tracer()
    tracer.install()
    try:
        for name, (owner, attr, original) in originals.items():
            assert getattr(owner, attr) is not original, name
            for mod in _package_modules():
                leftover = [k for k, v in vars(mod).items() if v is original]
                assert not leftover, f"{name} still unwrapped at {mod.__name__}:{leftover}"
            if inspect.isclass(owner):
                assert getattr(owner, attr).bench_layer == name
    finally:
        tracer.uninstall()
    for name, (owner, attr, original) in originals.items():
        assert getattr(owner, attr) is original, f"{name} not restored"
    # every `from .x import y` copy is restored too
    for mod in _package_modules():
        assert not [k for k, v in vars(mod).items() if hasattr(v, "bench_layer")], mod.__name__


_RUNS: dict = {}


def traced(workload: str, seed: int, again: bool = False) -> dict:
    """Per-layer metrics and the worker report of one traced run (cached)."""
    key = (workload, seed, again)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "10", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((BENCH / ".out" / f"{workload}-{seed}-trace1.json").read_text())
        _RUNS[key] = {"result": result, "report": report,
                      "m": {k: v["value"] for k, v in result["metrics"].items()}}
    return _RUNS[key]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_map(workload):
    run = traced(workload, 1)
    assert run["result"]["failed"] == 0, run["report"]["checks"]["failures"]
    m = run["m"]
    for metric, where in LAYER_MAP.items():
        rule = where.get(workload)
        if rule == ">0":
            assert m[metric] > 0, f"{metric} reads 0 on {workload}"
        elif rule == "==0":
            assert m[metric] == 0, f"{metric} reads {m[metric]} on {workload}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_counts_and_results(workload):
    a, b = traced(workload, 1), traced(workload, 1, again=True)
    counts = {k for k, v in a["result"]["metrics"].items() if v["unit"] == "count"}
    assert {k: a["m"][k] for k in counts} == {k: b["m"][k] for k in counts}
    keys = ("result_cvar", "result_gap", "solves")
    for ra, rb in zip(a["report"]["instances"], b["report"]["instances"]):
        assert {k: ra.get(k) for k in keys} == {k: rb.get(k) for k in keys}
    plain, tr = a["report"]["instances"]
    assert {k: plain.get(k) for k in keys} == {k: tr.get(k) for k in keys}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_stress_split(workload, seed):
    m = traced(workload, seed)["m"]
    metric, floor = SHARES[workload]
    assert m[metric] >= floor * m["trace.wall_s"], (metric, m[metric], m["trace.wall_s"])
    if workload == "saa-lp":
        assert m["cones.project.calls"] == 0


@pytest.mark.xfail(strict=True, raises=riskscen.SolverError,
                   reason="update_ghost_bounds rejects a near-collapsed ghost box")
def test_ghost_mode_completes_on_another_market(tmp_path):
    """Criterion 09's settings, reduced, on a second scenario file (seed 90901).

    With zero stopping tolerances the replication solutions can agree to
    rounding without the loop stopping; the ghost box around them is then so
    narrow that the region's feasibility check rejects it, and run_saa raises
    SolverError("ghost bounds infeasible even after widening"). Master seeds
    child_seed(s, 0) fail this way for s = 1, 4 and 7 of 1..10. The benchmark's case-ghost workload uses
    criterion 09's scenario file instead, where seeds 1..8 complete.
    """
    from riskscen.experiments import run_case_study
    from riskscen.seeding import child_seed
    from riskscen.synthetic import write_skewed_scenarios

    path = write_skewed_scenarios(tmp_path / "scenarios.csv", 12, 3000, 90_901)
    saa = {"n0": 200, "dn": 100, "replications": 4, "max_iterations": 2,
           "validation_n": 20_000, "gap_tol": 0.0, "var_tol": 0.0}
    config = {"source": {"scenario_csv": str(path)}, "max_assets": 4, "beta": 0.99,
              "modes": ["aggregation+ghost"], "saa": saa}
    run_case_study(config, child_seed(1, 0), tmp_path)


def test_outputs_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "saa-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    plain = json.loads(proc.stdout.strip().splitlines()[-1])
    for result, declared in ((plain, spec["end_to_end"]),
                             (traced("saa-lp", 1)["result"], spec["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
