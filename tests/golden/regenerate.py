"""Rewrite the golden outputs of the table experiments in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py [--jobs N]
    git diff --exit-code tests/golden

Each run of RUNS writes its files into a subdirectory named after it, plus
`paths.txt`, the names its driver returned, in order. A change that moves no
value leaves the diff empty; a change that moves values on purpose shows
every move in the diff. tests/test_golden.py runs the same RUNS and compares
against these files at a stated float tolerance.

Files are stored normalised: a CSV without its `# generator:` line, a JSONL
history without each record's `elapsed` and the meta record's `generator`.
Those change with the commit and the clock, not with the results. The
scenario file is written into the working directory and named by a relative
path, so the configs, and so every `# config-hash:`, are the same on every
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
from pathlib import Path

from riskscen.experiments import (run_case_study, run_prob_table, run_reduction_error,
                                  run_stability)
from riskscen.seeding import child_seed
from riskscen.synthetic import write_skewed_scenarios

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = "scenarios.csv"
# the skewed d = 12 set that criterion 09's synthetic_skewed source draws for seed 90 900
_CASE_SEED = 90_900
_SCENARIO_SEED = child_seed(_CASE_SEED, 15, 0)

RUNS = {
    "prob-table": (run_prob_table, 3, {
        "family": "student-t", "nu": 4.0, "dimensions": [5, 10], "quotas": [1.0, 0.7, 0.3],
        "betas": [0.95, 0.99], "trials": 3, "n_points": 2000}),
    "stability": (run_stability, 3, {
        "family": "student-t", "nu": 4.0, "dimensions": [10], "trials": 2, "sets": 10,
        "n_risk_target": 50, "beta": 0.95, "quota": 0.3}),
    "stability-empirical": (run_stability, 5, {
        "source": {"scenario_csv": SCENARIOS}, "family": "student-t", "nu": 4.0, "sets": 5,
        "n_risk_target": 50, "beta": 0.95}),
    "reduction-error": (run_reduction_error, 7, {
        "family": "student-t", "nu": 4.0, "dimensions": [5, 8], "trials": 1,
        "sizes": [100, 200], "betas": [0.95, 0.99], "sets": 4, "quota": 0.5}),
    # criterion 09's case study, read from its scenario set as a file
    "case-study": (run_case_study, _CASE_SEED, {
        "source": {"scenario_csv": SCENARIOS}, "max_assets": 4, "beta": 0.99,
        "modes": ["basic-sampling", "aggregation", "aggregation+ghost"],
        "saa": {"n0": 200, "dn": 100, "replications": 10, "gap_tol": 0.0, "var_tol": 0.0,
                "max_iterations": 4}}),
}


def write_inputs(cwd: Path) -> None:
    """The scenario file RUNS read, at its relative name under `cwd`."""
    write_skewed_scenarios(cwd / SCENARIOS, 12, 3000, _SCENARIO_SEED)


def run(name: str, cwd: Path, jobs: int = 1) -> tuple[list[str], dict[str, str]]:
    """Run RUNS[name] from `cwd` (which holds the inputs) into `cwd / name`.

    Returns the names the driver returned, in order, and each file it wrote,
    normalised, by name.
    """
    fn, seed, config = RUNS[name]
    out = cwd / name
    out.mkdir()
    returned = [p.name for p in fn(config, seed, out, jobs=jobs)]
    return returned, {p.name: normalised(p) for p in sorted(out.iterdir())}


def normalised(path: Path) -> str:
    text = path.read_text()
    if path.suffix != ".jsonl":
        return "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("# generator:"))
    records = []
    for line in text.splitlines():
        record = json.loads(line)
        record.pop("elapsed", None)
        record.get("meta", {}).pop("generator", None)
        records.append(json.dumps(record) + "\n")
    return "".join(records)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="worker process cap per run")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        here = os.getcwd()
        os.chdir(cwd)
        try:
            write_inputs(cwd)
            for name in RUNS:
                returned, files = run(name, cwd, args.jobs)
                target = GOLDEN / name
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir()
                (target / "paths.txt").write_text("".join(f"{n}\n" for n in returned))
                for file_name, text in files.items():
                    (target / file_name).write_text(text)
                print(f"{name}: {len(files)} files")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
