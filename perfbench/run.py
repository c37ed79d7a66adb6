"""riskscen benchmark entry point.

  python3 perfbench/run.py --workload case-ghost --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout and imports the package from src/.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Each measurement runs in a fresh
worker process (worker.py) with one BLAS thread: setup_s is the median wall
time of SETUP_REPEATS processes that only import and build the inputs.
Spans of a traced run and the full worker report go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("case-ghost", "saa-lp", "stability-exact")
SETUP_REPEATS = 7
# Every worker must end this many seconds after run.py started.
DEADLINE_S = 170


def _worker(args, work: Path, phase: str, extra=()) -> float:
    """Run one worker process to completion; returns its wall time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, "--work", str(work), *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, args.deadline - t0))
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {phase} exited with code {proc.returncode}")
    return wall


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(doc: dict, setup_walls: list[float]) -> dict:
    inst = [r for r in doc["instances"] if r["ok"]]
    walls = [r["wall"] for r in inst]
    checks = doc["checks"]
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setup_walls), "s"),
        "solves_per_s": _metric(sum(r["solves"] for r in inst) / sum(walls), "1/s"),
        "peak_rss_mb": _metric(doc["peak_rss_mb"], "MB"),
        "result_cvar": _metric(statistics.median(r["result_cvar"] for r in inst), "capital"),
        "ok_frac": _metric(1.0 - checks["failed"] / checks["attempted"], "frac"),
    }


def details(doc: dict) -> dict:
    """Figures printed beside the metrics: too noisy across seeds to bound, or always 0."""
    inst = [r for r in doc["instances"] if r["ok"]]
    checks = doc["checks"]
    return {"environment": doc["env"], "instances": len(doc["instances"]),
            "result_gap": statistics.median(r["result_gap"] for r in inst),
            "failed_frac": checks["failed"] / checks["attempted"],
            "spot_checked": doc["spot_checked"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    args.deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "riskscen" / "__init__.py").is_file():
        print(f"no riskscen sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = BENCH / ".work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    result = out_dir / f"{tag}.json"
    try:
        setup_walls = []
        if args.trace == 0:
            setup_walls = [_worker(args, work, "setup") for _ in range(SETUP_REPEATS)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", str(result)]
        if args.trace:
            extra += ["--spans", str(out_dir / f"{tag}.spans.jsonl")]
        _worker(args, work, "run", extra)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = json.loads(result.read_text(encoding="utf-8"))
    if not any(r["ok"] for r in doc["instances"]):
        print("benchmark failed: no instance completed; see " + str(result), file=sys.stderr)
        return 1
    if args.trace == 0:
        doc["setup_walls"] = setup_walls
        metrics = end_to_end(doc, setup_walls)
    else:
        metrics = doc["layers"]
    checks = doc["checks"]
    for failure in checks["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    result.write_text(json.dumps(doc), encoding="utf-8")
    print(json.dumps(details(doc)))
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
