"""The three benchmark workloads.

Each workload has a fixed market (its data seed is a constant, like a
shipped data file) and takes the run's seed for everything the experiment
samples: instance i of a run is the experiment called with master seed
child_seed(seed, i). `nominal_s` is one instance's wall time on the 2-core
reference host; it sets how many instances fit a run. `setup` writes or
builds the inputs once per process; `call` is the one timed experiment
call, and `read` takes the answer back from what the call returned or wrote.

Why these three (see README.md for the layer map):
  case-ghost       the ghost-box case study; classification (cones ->
                   risk_region -> scenario_gen) dominates.
  saa-lp           basic-sampling SAA on a continuous problem; the dense
                   LP dominates and no risk region is ever built, so it is
                   the bypass workload for classification changes.
  stability-exact  the stability experiment; the exact elliptical solver
                   (project_polytope) dominates, and classification runs
                   on elliptical draws under a quota cone at beta=0.95.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import riskscen.distributions as distributions
import riskscen.experiments as experiments
import riskscen.saa as saa
from riskscen.cones import FeasibleRegion
from riskscen.cvar_opt import P1, PortfolioProblem
from riskscen.seeding import child_seed
from riskscen.synthetic import synthetic_returns, write_skewed_scenarios, write_synthetic_returns

# case-ghost uses the scenario file of acceptance criterion 09 (same generator and seed).
CASE_DATA_SEED = child_seed(90_900, 15, 0)
SAA_DATA_SEED = 7
STAB_DATA_SEED = 7


def _rows(path: Path) -> list[list[str]]:
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [row for row in csv.reader(lines)][1:]


class CaseGhost:
    name = "case-ghost"
    nominal_s = 11.0
    # Criterion 09's settings (zero stopping tolerances), reduced to 4
    # replications, 2 iterations and a 20k validation sample.
    saa_config = {"n0": 150, "dn": 50, "replications": 4, "max_iterations": 2,
                  "validation_n": 20_000, "gap_tol": 0.0, "var_tol": 0.0,
                  "prob_estimate_n": 2000}

    def setup(self, work: Path) -> dict:
        path = write_skewed_scenarios(work / "scenarios.csv", 12, 3000, CASE_DATA_SEED)
        return {"config": {"source": {"scenario_csv": str(path)}, "max_assets": 4,
                           "beta": 0.99, "modes": list(saa.MODES), "saa": self.saa_config}}

    def call(self, inputs: dict, seed: int, out: Path):
        return experiments.run_case_study(inputs["config"], seed, out)

    def read(self, inputs: dict, out: Path, returned, records: list) -> dict:
        ghost = saa.AGGREGATION_GHOST
        summary = {r[0]: r for r in _rows(out / "case-summary.csv")}
        oos = float(summary[ghost][1])
        solves = 0
        final_gaps = None
        for mode in saa.MODES:
            with open(out / f"case-history-{mode}.jsonl", encoding="utf-8") as fh:
                states = [json.loads(l) for l in fh]
            states = [s for s in states if "meta" not in s]
            solves += sum(len(s["solutions"]) for s in states)
            if mode == ghost:
                final_gaps = states[-1]["gaps"]
        return {"result_cvar": oos, "result_gap": float(np.min(final_gaps)),
                "solves": solves, "checks": []}


class SaaLp:
    name = "saa-lp"
    nominal_s = 6.0
    saa_config = {"mode": saa.BASIC, "n0": 400, "dn": 200, "replications": 16,
                  "max_iterations": 2, "validation_n": 20_000, "gap_tol": 0.0,
                  "var_tol": 0.0}

    def setup(self, work: Path) -> dict:
        _, returns = synthetic_returns(10, 240, SAA_DATA_SEED, family="student-t")
        dist = distributions.fit_from_returns(returns, "student-t", nu=4.0)
        region = FeasibleRegion(10, 1.0, upper=np.full(10, 0.3))
        return {"dist": dist, "problem": PortfolioProblem(region, 0.95, mu=dist.mu, mode=P1)}

    def call(self, inputs: dict, seed: int, out: Path):
        return saa.run_saa(inputs["problem"], inputs["dist"],
                           saa.SaaConfig(**self.saa_config), seed)

    def read(self, inputs: dict, out: Path, returned, records: list) -> dict:
        best, history = returned
        return {"result_cvar": float(best.cvar), "result_gap": float(np.min(history[-1].gaps)),
                "solves": sum(len(s.solutions) for s in history), "checks": []}


class StabilityExact:
    name = "stability-exact"
    nominal_s = 14.0
    sets = 30
    n_risk_target = 50

    def setup(self, work: Path) -> dict:
        path = write_synthetic_returns(work / "returns.csv", 10, 240, STAB_DATA_SEED,
                                       family="student-t")
        return {"config": {"family": "student-t", "nu": 4.0, "dimensions": [10], "trials": 1,
                           "sets": self.sets, "n_risk_target": self.n_risk_target,
                           "beta": 0.95, "quota": 0.3, "source": {"returns_csv": str(path)}}}

    def call(self, inputs: dict, seed: int, out: Path):
        return experiments.run_stability(inputs["config"], seed, out)

    def read(self, inputs: dict, out: Path, returned, records: list) -> dict:
        summary = _rows(out / "stability-tdist_10.csv")[0]
        exact = [sol for layer, _, sol in records if layer == "cvar_opt.solve_exact_elliptical"]
        cvar = float(exact[-1].cvar)
        tol = 1e-9 * (1.0 + abs(cvar))
        checks = [(f"true gap >= -tol ({r[2]} set {r[1]})", float(r[3]) >= -tol)
                  for r in _rows(out / "stability-gaps-tdist_10.csv")]
        return {"result_cvar": cvar, "result_gap": float(summary[3]),
                "solves": self.sets, "checks": checks}


WORKLOADS = {w.name: w for w in (CaseGhost(), SaaLp(), StabilityExact())}
