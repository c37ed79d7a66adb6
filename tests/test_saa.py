"""Gap estimation, ghost bounds, and the SAA loop."""

import json

import numpy as np
import pytest

from oracles import in_region
from riskscen.cones import ConeProjector, FeasibleRegion, cone_member, conic_hull
from riskscen.cvar_opt import PortfolioProblem
from riskscen.distributions import EllipticalDistribution, normal_quantile
from riskscen.errors import ConfigError, SolverError
from riskscen.saa import (SaaConfig, estimate_gap, run_saa, update_ghost_bounds,
                          write_history)
from riskscen.seeding import child_seed


class TestEstimateGap:
    def test_degenerate_replications_give_zero(self):
        nu = [1.5, 1.5, 1.5]
        g = np.full((3, 2), 1.5)
        gaps, half = estimate_gap(nu, g)
        assert gaps == pytest.approx([0.0, 0.0])
        assert half == pytest.approx([0.0, 0.0])

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        nu = rng.normal(size=6)
        g = rng.normal(size=(6, 3))
        gaps0, half0 = estimate_gap(nu, g)
        gaps1, half1 = estimate_gap(nu + 5.0, g + 5.0)
        assert gaps1 == pytest.approx(gaps0, abs=1e-12)
        assert half1 == pytest.approx(half0, abs=1e-12)

    def test_needs_two_replications(self):
        with pytest.raises(ConfigError):
            estimate_gap([1.0], [[1.0]])

    def test_gap_clipped_at_zero(self):
        gaps, _ = estimate_gap([1.0, 2.0], [[0.0], [0.0]])
        assert gaps[0] == 0.0

    def test_ci_coverage_on_synthetic_normals(self):
        # differences ~ N(gamma, sigma^2): the one-sided upper bound
        # gap + z_alpha * S/sqrt(M) should cover gamma at ~alpha rate
        rng = np.random.default_rng(1)
        gamma, sigma, m, alpha = 0.3, 0.1, 10, 0.95
        covered = 0
        trials = 500
        for _ in range(trials):
            diffs = rng.normal(gamma, sigma, size=m)
            # represent as nu=0 and g = diffs (one candidate)
            gaps, half = estimate_gap(np.zeros(m), diffs[:, None], alpha)
            if gamma <= gaps[0] + half[0]:
                covered += 1
        assert covered / trials >= 0.85


class TestGhostBounds:
    def test_identical_solutions_collapse_to_point_box(self):
        region = FeasibleRegion(3, 1.0)
        x = np.array([0.2, 0.3, 0.5])
        sols = np.tile(x, (10, 1))
        l, u = update_ghost_bounds(sols, 0.99, region, region.lower, region.upper)
        assert l == pytest.approx(x)
        assert u == pytest.approx(x)

    def test_collapsed_incoming_box_closes_rounding_crossings(self):
        # Replication solutions that agree exactly, against an incoming box
        # already collapsed onto a point one ulp lower in one coordinate: the
        # intersection crosses (l > u) by about 1e-16, which used to end in
        # "ghost bounds infeasible even after widening".
        region = FeasibleRegion(3, 1.0)
        x = np.array([0.2, 0.3, 0.5])
        prev = np.array([0.2, np.nextafter(0.3, 0.0), 0.5])
        l, u = update_ghost_bounds(np.tile(x, (4, 1)), 0.99, region, prev, prev)
        assert np.all(l <= u)
        assert l == pytest.approx(x, abs=1e-12)
        assert u == pytest.approx(x, abs=1e-12)

    def test_huge_spread_clamps_to_quota(self):
        region = FeasibleRegion(2, 1.0, upper=[0.8, 0.8])
        sols = np.array([[0.8, 0.2], [0.0, 1.0], [1.0, 0.0], [0.2, 0.8]]) * 50
        l, u = update_ghost_bounds(sols, 0.99, region, region.lower, region.upper)
        assert np.all(l >= 0.0)
        assert u == pytest.approx(region.upper)

    def test_box_coverage_of_true_solution(self):
        rng = np.random.default_rng(2)
        x_true = np.array([0.25, 0.35, 0.40])
        region = FeasibleRegion(3, 1.0)
        m, alpha = 10, 0.99
        hits = 0
        trials = 200
        for _ in range(trials):
            sols = x_true + rng.normal(scale=0.02, size=(m, 3))
            sols = np.clip(sols, 0, 1)
            l, u = update_ghost_bounds(sols, alpha, region, region.lower, region.upper)
            if np.all(l <= x_true) and np.all(x_true <= u):
                hits += 1
        # per-coordinate two-sided coverage with estimated spread is
        # P(|T_9| <= z_0.99) ~ 0.955, so the 3-coordinate joint is ~0.87;
        # require it above the 2-sigma binomial floor
        assert hits / trials >= 0.82

    def test_bounds_only_tighten(self):
        region = FeasibleRegion(2, 1.0)
        prev_l, prev_u = np.array([0.1, 0.0]), np.array([0.8, 0.9])
        sols = np.array([[0.5, 0.5], [0.4, 0.6], [0.45, 0.55], [0.5, 0.5]])
        l, u = update_ghost_bounds(sols, 0.99, region, prev_l, prev_u)
        assert np.all(l >= prev_l - 1e-12)
        assert np.all(u <= prev_u + 1e-12)

    def test_infeasible_box_widens_once_then_fails(self):
        region = FeasibleRegion(2, 1.0)
        # solutions concentrated at an infeasible corner sum
        sols = np.tile([0.2, 0.2], (10, 1))  # box [0.2,0.2]x[0.2,0.2]: sum != 1
        with pytest.raises(SolverError):
            update_ghost_bounds(sols, 0.99, region, region.lower, region.upper)

    def test_formula_matches_normal_quantile(self):
        region = FeasibleRegion(2, 1.0)
        rng = np.random.default_rng(3)
        sols = np.clip(rng.normal(0.5, 0.05, size=(10, 2)), 0, 1)
        alpha = 0.9
        l, u = update_ghost_bounds(sols, alpha, region, region.lower, region.upper)
        z = normal_quantile(alpha)
        xbar = sols.mean(axis=0)
        sd = sols.std(axis=0, ddof=1)
        assert l == pytest.approx(np.maximum(xbar - z * sd / np.sqrt(10), 0), abs=1e-12)
        assert u == pytest.approx(np.minimum(xbar + z * sd / np.sqrt(10), 1), abs=1e-12)


def toy_problem(d=2):
    mu = np.linspace(0.01, 0.02, d)
    dist = EllipticalDistribution("normal", mu, 0.05 * (np.eye(d) + 0.2), None)
    problem = PortfolioProblem(FeasibleRegion(d, 1.0), 0.95, mu=mu)
    return problem, dist


class TestRunSaa:
    def test_basic_mode_smoke_terminates_quickly(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=60, dn=30, replications=3, validation_n=2000,
                        gap_tol=1.0, var_tol=1.0, max_iterations=4, mode="basic-sampling")
        best, history = run_saa(problem, dist, cfg, 5)
        assert len(history) == 1  # generous stop rule triggers immediately
        assert best.status == "optimal"
        assert in_region(problem.region, best.x)

    def test_fixed_seed_reproduces_history(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=40, dn=20, replications=3, validation_n=1000,
                        gap_tol=0.0, var_tol=0.0, max_iterations=3, mode="aggregation")
        _, h1 = run_saa(problem, dist, cfg, 11)
        _, h2 = run_saa(problem, dist, cfg, 11)
        for a, b in zip(h1, h2):
            assert a.n == b.n
            assert a.nu == b.nu
            assert np.array_equal(np.array(a.solutions), np.array(b.solutions))
            assert a.nonrisk_prob == b.nonrisk_prob

    def test_ghost_mode_probability_nondecreasing_and_cones_nest(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=50, dn=25, replications=5, validation_n=2000,
                        gap_tol=0.0, var_tol=0.0, max_iterations=4,
                        mode="aggregation+ghost", prob_estimate_n=4000)
        best, history = run_saa(problem, dist, cfg, 13)
        probs = [s.nonrisk_prob for s in history]
        sigma = np.sqrt(0.25 / cfg.prob_estimate_n)
        for earlier, later in zip(probs, probs[1:]):
            assert later >= earlier - 2 * sigma
        # bounds tighten monotonically, so the conic hulls nest
        rng = np.random.default_rng(0)
        for earlier, later in zip(history, history[1:]):
            cone_t = conic_hull(problem.region.with_bounds(earlier.lower, earlier.upper))
            cone_n = conic_hull(problem.region.with_bounds(later.lower, later.upper))
            projector = ConeProjector(cone_n)
            for _ in range(50):
                v = projector.project(rng.normal(size=problem.d))
                assert cone_member(cone_t, v, tol=1e-7)

    def test_all_candidates_feasible_for_original_region(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=40, dn=20, replications=4, validation_n=1000,
                        gap_tol=0.0, var_tol=0.0, max_iterations=3,
                        mode="aggregation+ghost")
        _, history = run_saa(problem, dist, cfg, 17)
        for state in history:
            for x in state.solutions:
                assert in_region(problem.region, x, tol=1e-7)

    def test_best_solution_wins_validation(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=40, dn=20, replications=4, validation_n=3000,
                        gap_tol=0.0, var_tol=0.0, max_iterations=2, mode="basic-sampling")
        best, history = run_saa(problem, dist, cfg, 23)
        from riskscen.cvar_opt import discrete_cvar
        from riskscen.distributions import sample as sample_scen
        validation = sample_scen(dist, cfg.validation_n, child_seed(23, 3))
        for state in history:
            for x in state.solutions:
                assert best.cvar <= discrete_cvar(validation, x, problem.beta) + 1e-12

    def test_history_serialization(self, tmp_path):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=30, dn=10, replications=3, validation_n=500,
                        gap_tol=1.0, var_tol=1.0, max_iterations=2, mode="aggregation")
        _, history = run_saa(problem, dist, cfg, 29)
        path = tmp_path / "hist.jsonl"
        write_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(history)
        rec = json.loads(lines[0])
        assert {"iteration", "n", "lower", "upper", "nu", "solutions", "gaps",
                "ci_halfwidths", "nonrisk_prob", "seeds", "elapsed"} <= set(rec)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SaaConfig(replications=1)
        with pytest.raises(ConfigError):
            SaaConfig(mode="bogus")
        with pytest.raises(ConfigError):
            SaaConfig(alpha_gap=0.4)
