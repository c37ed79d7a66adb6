"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion, including the measured runtime against its budget.
"""

import json
import time

import numpy as np
import pytest

from oracles import (cone_direction_grid, cvar_oracle, directional_risk_scores,
                     project_generators_oracle, project_polyhedral_oracle,
                     quantile_oracle, simplex_cvar_oracle)
from riskscen.cones import Cone, FeasibleRegion, conic_hull, project_generators, project_polyhedral
from riskscen.cvar_opt import (Cardinality, PortfolioProblem, discrete_cvar,
                               solve_cardinality, solve_exact_elliptical, solve_lp)
from riskscen.distributions import (EllipticalDistribution, ScenarioSet, fit_from_returns,
                                    portfolio_loss_stats, sample, spherical_cvar,
                                    spherical_quantile)
from riskscen.experiments import (run_case_study, run_prob_table, run_reduction_error,
                                  run_stability)
from riskscen.risk_region import RiskRegion, classify_mask
from riskscen.scenario_gen import aggregation_reduction, aggregation_sampling
from riskscen.seeding import child_seed, rng_from
from riskscen.synthetic import synthetic_returns

pytestmark = pytest.mark.acceptance


def _finish(num, name, ok, t0, limit, detail=""):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"\n[criterion {num:02d}] {status} {name} ({elapsed:.1f}s / budget {limit:.0f}s) {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert in_time, f"criterion {num} ({name}) overran its {limit:.0f}s budget: {elapsed:.1f}s"


def test_criterion_01_projection_correctness():
    t0 = time.perf_counter()
    rng = rng_from(10_101)
    worst = 0.0
    worst_moreau = 0.0
    for k in range(100):
        d = int(rng.integers(2, 7))
        rows = int(rng.integers(1, 9))
        pts = rng.normal(size=(100, d)) * 2.0
        if k % 2 == 0:
            B = rng.normal(size=(rows, d))
            cone = Cone(d, facets=B)
            mine = np.array([project_polyhedral(cone, y) for y in pts])
            oracle = project_polyhedral_oracle(B, pts)
            polar = Cone(d, generators=-B)
            q = np.array([project_generators(polar, y) for y in pts])
            worst_moreau = max(worst_moreau,
                               np.abs(mine + q - pts).max(),
                               np.abs((mine * q).sum(axis=1)).max())
        else:
            G = rng.normal(size=(rows, d))
            cone = Cone(d, generators=G)
            mine = np.array([project_generators(cone, y) for y in pts])
            oracle = project_generators_oracle(cone.generators, pts)
        worst = max(worst, float(np.abs(mine - oracle).max()))
    ok = worst < 1e-8 and worst_moreau < 1e-8
    _finish(1, "cone projection vs active-set oracle", ok, t0, 30,
            f"max|p-oracle|={worst:.2e} max moreau residual={worst_moreau:.2e}")


def test_criterion_02_risk_region_membership():
    t0 = time.perf_counter()
    mismatches = 0
    total_checked = 0
    case_id = 0
    for d in (2, 3):
        for family, nu in (("normal", None), ("student-t", 4.0)):
            for beta in (0.95, 0.99):
                for quota in (1.0, 0.7):
                    case_id += 1
                    rng = rng_from(20_200, case_id)
                    mu = rng.normal(size=d) * 0.02
                    P = np.eye(d) + 0.25 * np.triu(rng.normal(size=(d, d)), 1)
                    dist = EllipticalDistribution(family, mu, P, nu)
                    fr = FeasibleRegion(d, 1.0, upper=np.full(d, quota))
                    region = RiskRegion(dist, conic_hull(fr), beta)
                    pts = dist.draw(rng, 1000)
                    ours = classify_mask(region, pts)
                    dirs = cone_direction_grid(d, region.cone.facets,
                                               step=1e-3 if d == 2 else 5e-3)
                    scores = directional_risk_scores(pts, mu, P, dirs)
                    margins = np.array([region.projection_norm(y) for y in pts])
                    band = 1e-3 * region.threshold
                    decided = np.abs(margins - region.threshold) > band
                    total_checked += int(decided.sum())
                    mismatches += int(
                        (ours[decided] != (scores[decided] >= region.threshold)).sum())
    ok = mismatches == 0 and total_checked > 12_000
    _finish(2, "membership vs directional oracle", ok, t0, 120,
            f"{mismatches} mismatches over {total_checked} decided points in 16 cases")


def test_criterion_03_closed_form_tails():
    t0 = time.perf_counter()
    worst = 0.0
    for family, nu in (("normal", None), ("student-t", 4.0)):
        for beta in (0.9, 0.95, 0.99):
            worst = max(
                worst,
                abs(spherical_quantile(family, beta, nu) - quantile_oracle(family, beta, nu)),
                abs(spherical_cvar(family, beta, nu) - cvar_oracle(family, beta, nu)),
            )
    ok = worst < 1e-6
    _finish(3, "quantile/CVaR vs quadrature oracles", ok, t0, 5, f"max err={worst:.2e}")


def test_criterion_04_effective_sample_size_law():
    t0 = time.perf_counter()
    dist = EllipticalDistribution("normal", np.zeros(2), np.eye(2))
    region = RiskRegion(dist, conic_hull(FeasibleRegion(2, 1.0)), 0.95)
    q_hat = 1.0 - classify_mask(region, dist.draw(rng_from(40_400), 10**5)).mean()
    runs = np.array([
        aggregation_sampling(region, dist, 100, child_seed(40_401, i)).effective_sample_size
        for i in range(200)
    ])
    target = 100.0 / (1.0 - q_hat)
    se_mean = runs.std(ddof=1) / np.sqrt(runs.size)
    se_target = 100.0 / (1.0 - q_hat) ** 2 * np.sqrt(q_hat * (1.0 - q_hat) / 10**5)
    se = np.hypot(se_mean, se_target)
    ok = abs(runs.mean() - target) < 3.0 * se
    _finish(4, "mean effective sample size law", ok, t0, 60,
            f"mean={runs.mean():.1f} target={target:.1f} 3se={3 * se:.1f}")


def test_criterion_05_zero_reduction_error():
    t0 = time.perf_counter()
    _, R = synthetic_returns(5, 240, 50_500)
    dist = fit_from_returns(R, "normal")
    fr = FeasibleRegion(5, 1.0)
    problem95 = PortfolioProblem(fr, 0.95, mu=dist.mu)
    region95 = RiskRegion(dist, conic_hull(fr), 0.95)

    zero_error = 0
    for i in range(30):
        scen = sample(dist, 500, child_seed(50_501, i))
        original = solve_lp(problem95, scen)
        reduced = aggregation_reduction(region95, scen)
        x_red = solve_lp(problem95, reduced).x
        err = discrete_cvar(scen, x_red, 0.95) - original.objective
        if err <= 1e-6:
            zero_error += 1

    problem99 = PortfolioProblem(fr, 0.99, mu=dist.mu)
    region99 = RiskRegion(dist, conic_hull(fr), 0.99)
    means = []
    for n in (100, 500):
        errs = []
        for i in range(30):
            scen = sample(dist, n, child_seed(50_502, n, i))
            original = solve_lp(problem99, scen)
            reduced = aggregation_reduction(region99, scen)
            x_red = solve_lp(problem99, reduced).x
            errs.append(discrete_cvar(scen, x_red, 0.99) - original.objective)
        means.append(float(np.mean(errs)))
    ok = (zero_error >= 27 and all(m >= -1e-9 for m in means)
          and means[1] <= means[0] + 1e-12)
    _finish(5, "aggregation reduction error", ok, t0, 300,
            f"beta=.95 zero-error sets {zero_error}/30; beta=.99 mean errors "
            f"n100={means[0]:.2e} n500={means[1]:.2e}")


def test_criterion_06_stability_improvement(tmp_path):
    t0 = time.perf_counter()
    config = {"family": "normal", "dimensions": [10], "trials": 1, "sets": 50,
              "n_risk_target": 80, "beta": 0.95, "source": {"synthetic": {"months": 240}}}
    paths = run_stability(config, 60_600, tmp_path)
    summary = [p for p in paths if "gaps" not in p.name][0]
    body = [l for l in summary.read_text().splitlines() if not l.startswith("#")]
    mean_s, sd_s, mean_a, sd_a = map(float, body[1].split(",")[1:])
    ok = mean_a < mean_s and sd_a < sd_s
    _finish(6, "aggregation sampling stability", ok, t0, 600,
            f"mean {mean_a:.2e} vs {mean_s:.2e}; sd {sd_a:.2e} vs {sd_s:.2e}")


def test_criterion_07_lp_cvar_coherence():
    t0 = time.perf_counter()
    rng = rng_from(70_700)
    worst_coherence = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(30, 90))
        beta = float(rng.uniform(0.75, 0.97))
        scen = ScenarioSet.equally_weighted(rng.normal(size=(n, d)) * 0.1)
        if rng.integers(0, 2):
            problem = PortfolioProblem(FeasibleRegion(d, 1.0), beta,
                                       mu=np.zeros(d), mode="P3",
                                       lam=float(rng.uniform(0.3, 1.0)))
            lam, mu_term = problem.lam, 0.0
            sol = solve_lp(problem, scen)
            model_val = lam * discrete_cvar(scen, sol.x, beta)
        else:
            mu = rng.uniform(0.0, 0.02, size=d)
            problem = PortfolioProblem(FeasibleRegion(d, 1.0), beta, mu=mu)
            sol = solve_lp(problem, scen)
            model_val = discrete_cvar(scen, sol.x, beta)
        worst_coherence = max(worst_coherence, abs(sol.lp_objective - model_val))
    worst_gap = 0.0
    for i in range(6):
        scen = ScenarioSet.equally_weighted(rng_from(70_701, i).normal(size=(60, 4)) * 0.1)
        problem = PortfolioProblem(FeasibleRegion(4, 1.0), 0.9, mu=np.zeros(4),
                                   mode="P3", lam=1.0)
        sol = solve_lp(problem, scen)
        oracle = simplex_cvar_oracle(scen.points, scen.probs, 0.9)
        worst_gap = max(worst_gap, abs(sol.lp_objective - oracle))
    ok = worst_coherence < 1e-7 and worst_gap < 1e-4
    _finish(7, "LP value vs discrete CVaR and grid oracle", ok, t0, 120,
            f"coherence={worst_coherence:.2e} grid gap={worst_gap:.2e}")


def test_criterion_08_cardinality_branch_and_bound():
    t0 = time.perf_counter()
    import itertools

    worst = 0.0
    for trial in range(20):
        rng = rng_from(80_800, trial)
        mu = rng.uniform(0.005, 0.02, size=6)
        pts = mu + rng.normal(size=(40, 6)) * rng.uniform(0.03, 0.08, size=6)
        scen = ScenarioSet.equally_weighted(pts)
        problem = PortfolioProblem(FeasibleRegion(6, 1.0), 0.9, mu=mu, mode="P3",
                                   lam=0.9, cardinality=Cardinality(2))
        sol = solve_cardinality(problem, scen)
        best = np.inf
        for support in itertools.combinations(range(6), 2):
            upper = np.zeros(6)
            upper[list(support)] = 1.0
            sub = PortfolioProblem(FeasibleRegion(6, 1.0, upper=upper), 0.9, mu=mu,
                                   mode="P3", lam=0.9)
            cand = solve_lp(sub, scen)
            if cand.status == "optimal":
                best = min(best, cand.objective)
        worst = max(worst, abs(sol.objective - best))
    ok = worst < 1e-7
    _finish(8, "branch-and-bound vs exhaustive supports", ok, t0, 120,
            f"max |bb - enumeration| = {worst:.2e}")


def test_criterion_09_ghost_case_study(tmp_path):
    t0 = time.perf_counter()
    config = {
        "source": {"synthetic_skewed": {"d": 12, "n": 3000}},
        "max_assets": 4, "beta": 0.99,
        "modes": ["basic-sampling", "aggregation", "aggregation+ghost"],
        "saa": {"n0": 200, "dn": 100, "replications": 10, "validation_n": 100_000,
                "gap_tol": 0.0, "var_tol": 0.0, "max_iterations": 4,
                "prob_estimate_n": 2000},
    }
    run_case_study(config, 90_900, tmp_path)
    prob_rows = [l.split(",") for l in (tmp_path / "case-prob.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
    ghost_probs = [float(r[3]) for r in prob_rows]
    sigma2 = 2 * np.sqrt(0.25 / 2000)
    nondecreasing = all(b >= a - sigma2 for a, b in zip(ghost_probs, ghost_probs[1:]))
    box_rows = [l.split(",") for l in (tmp_path / "case-boxplot.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
    med = {m: float(np.median([float(r[2]) for r in box_rows if r[0] == m]))
           for m in ("basic-sampling", "aggregation", "aggregation+ghost")}
    # "allowing ties": medians within the validation estimator's noise floor
    # (~std_tail/sqrt(n(1-beta)) ~ 0.5% relative at n=1e5, beta=0.99) count as equal
    band = 0.005 * med["basic-sampling"]
    ordered = (med["aggregation+ghost"] <= med["aggregation"] + band
               and med["aggregation"] <= med["basic-sampling"] + band)
    ok = nondecreasing and ordered and len(ghost_probs) == 4
    _finish(9, "ghost-constraint case study", ok, t0, 1200,
            f"ghost prob series={['%.3f' % p for p in ghost_probs]} medians "
            f"ghost={med['aggregation+ghost']:.4f} agg={med['aggregation']:.4f} "
            f"basic={med['basic-sampling']:.4f}")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    identical = True
    detail = []
    runs = {
        "prob-table": (run_prob_table,
                       {"family": "normal", "dimensions": [2], "betas": [0.95],
                        "quotas": [1.0, 0.7], "trials": 2, "n_points": 400,
                        "source": {"synthetic": {"months": 120}}}),
        "stability": (run_stability,
                      {"family": "normal", "dimensions": [3], "trials": 1, "sets": 6,
                       "n_risk_target": 40, "beta": 0.95,
                       "source": {"synthetic": {"months": 120}}}),
        "reduction-error": (run_reduction_error,
                            {"family": "normal", "dimensions": [3], "trials": 1,
                             "sizes": [80], "betas": [0.95], "sets": 4,
                             "source": {"synthetic": {"months": 120}}}),
        "case-study": (run_case_study,
                       {"source": {"synthetic_skewed": {"d": 5, "n": 400}},
                        "max_assets": 2, "beta": 0.95,
                        "modes": ["basic-sampling", "aggregation"],
                        "saa": {"n0": 30, "dn": 10, "replications": 2,
                                "validation_n": 500, "gap_tol": 0.0, "var_tol": 0.0,
                                "max_iterations": 2, "prob_estimate_n": 200}}),
    }
    for name, (fn, config) in runs.items():
        a = tmp_path / f"{name}-a"
        b = tmp_path / f"{name}-b"
        a.mkdir(), b.mkdir()
        pa = sorted(fn(config, 101_010, a))
        pb = sorted(fn(config, 101_010, b))
        for x, y in zip(pa, pb):
            if x.read_bytes() != y.read_bytes():
                identical = False
                detail.append(f"{name}:{x.name}")
        for hx in sorted(a.glob("*.jsonl")):
            hy = b / hx.name
            recs_x = [json.loads(l) for l in hx.read_text().splitlines()]
            recs_y = [json.loads(l) for l in hy.read_text().splitlines()]
            for rx, ry in zip(recs_x, recs_y):
                rx.pop("elapsed", None), ry.pop("elapsed", None)
            if recs_x != recs_y:
                identical = False
                detail.append(f"{name}:{hx.name}")
    _finish(10, "CLI determinism", identical, t0, 600,
            "all numeric outputs byte-identical" if identical else f"diffs: {detail}")
