"""Gap estimation, ghost bounds, and the SAA loop."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import in_region
from riskscen import saa
from riskscen.cones import ConeProjector, FeasibleRegion, cone_member, conic_hull
from riskscen.cvar_opt import P1, Cardinality, PortfolioProblem, _loss_tail, discrete_cvar
from riskscen.distributions import (EllipticalDistribution, EmpiricalDistribution,
                                    fit_from_returns, normal_quantile, portfolio_loss_stats)
from riskscen.errors import ConfigError, SolverError
from riskscen.experiments import _T_CASE
from riskscen.risk_region import RiskRegion, classify_mask
from riskscen.saa import (SaaConfig, estimate_gap, run_saa, update_ghost_bounds,
                          write_history)
from riskscen.scenario_gen import aggregation_sampling
from riskscen.seeding import child_seed
from riskscen.synthetic import skewed_scenarios


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
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 1.0])
    def test_level_outside_half_to_one_rejected(self, alpha):
        region = FeasibleRegion(3, 1.0)
        sols = np.random.default_rng(0).dirichlet(np.ones(3), size=6)
        with pytest.raises(ConfigError, match=r"\(0.5, 1\)"):
            update_ghost_bounds(sols, alpha, region, region.lower, region.upper)

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

    def test_rounding_crossing_closes_inside_the_incoming_box(self):
        # The incoming box is collapsed on x and the replications sit one ulp
        # below it in one coordinate: the crossing must close at a point of
        # the incoming box, or the boxes stop nesting.
        region = FeasibleRegion(3, 1.0)
        x = np.array([0.2, 0.3, 0.5])
        below = np.array([0.2, np.nextafter(0.3, 0.0), 0.5])
        l, u = update_ghost_bounds(np.tile(below, (4, 1)), 0.99, region, x, x)
        assert np.all(l >= x) and np.all(u <= x) and np.all(l <= u)

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

    def test_support_limit_rejects_more_forced_positions(self):
        # A collapsed box forces three positions, more than two slots allow.
        region = FeasibleRegion(4, 1.0)
        sols = np.tile([0.4, 0.3, 0.3, 0.0], (4, 1))
        l, u = update_ghost_bounds(sols, 0.99, region, region.lower, region.upper)
        assert np.all(l <= u)
        with pytest.raises(SolverError):
            update_ghost_bounds(sols, 0.99, region, region.lower, region.upper,
                                Cardinality(2))

    def test_support_limit_needs_upper_bounds_that_reach_the_budget(self):
        # Every box upper bound comes out 1/6 + z sd / 2 = 0.3905 at alpha 0.99
        # (0.4145 after widening): three reach the budget, two cannot.
        region = FeasibleRegion(6, 1.0)
        a = 1.0 / 3.0
        sols = np.array([[a, a, a, 0, 0, 0], [0, 0, 0, a, a, a],
                         [a, 0, a, 0, a, 0], [0, a, 0, a, 0, a]])
        l, u = update_ghost_bounds(sols, 0.99, region, region.lower, region.upper)
        assert u == pytest.approx(np.full(6, 0.3905), abs=1e-4)
        with pytest.raises(SolverError):
            update_ghost_bounds(sols, 0.99, region, region.lower, region.upper,
                                Cardinality(2))
        l3, u3 = update_ghost_bounds(sols, 0.99, region, region.lower, region.upper,
                                     Cardinality(3))
        assert np.array_equal(l3, l) and np.array_equal(u3, u)

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
        cfg = SaaConfig(n0=60, dn=30, replications=3, gap_tol=1.0, var_tol=1.0,
                        max_iterations=4, mode="basic-sampling")
        best, history = run_saa(problem, dist, cfg, 5)
        assert len(history) == 1  # generous stop rule triggers immediately
        assert best.status == "optimal"
        assert in_region(problem.region, best.x)

    def test_fixed_seed_reproduces_history(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=40, dn=20, replications=3, gap_tol=0.0, var_tol=0.0,
                        max_iterations=3, mode="aggregation")
        _, h1 = run_saa(problem, dist, cfg, 11)
        _, h2 = run_saa(problem, dist, cfg, 11)
        for a, b in zip(h1, h2):
            assert a.n == b.n
            assert a.nu == b.nu
            assert np.array_equal(np.array(a.solutions), np.array(b.solutions))
            assert a.nonrisk_prob == b.nonrisk_prob

    def test_ghost_mode_probability_nondecreasing_and_cones_nest(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=50, dn=25, replications=5, gap_tol=0.0, var_tol=0.0,
                        max_iterations=4, mode="aggregation+ghost")
        best, history = run_saa(problem, dist, cfg, 13)
        # The true non-risk mass never falls as the cones nest. Its estimate from
        # M replications of n risk draws has sd about (1 - q) sqrt(q / (M n)), so
        # the series may fall by 2 sd of the earlier estimate, kept no looser
        # than 2 sqrt(0.25 / 4000), the 2-sd bound of a 4000-point sample.
        for earlier, later in zip(history, history[1:]):
            q = earlier.nonrisk_prob
            slack = 2 * (1.0 - q) * np.sqrt(q / (len(earlier.seeds) * earlier.n))
            assert slack <= 2 * np.sqrt(0.25 / 4000)
            assert later.nonrisk_prob >= q - slack
        # bounds tighten monotonically, so the conic hulls nest
        rng = np.random.default_rng(0)
        for earlier, later in zip(history, history[1:]):
            cone_t = conic_hull(problem.region.with_bounds(earlier.lower, earlier.upper))
            cone_n = conic_hull(problem.region.with_bounds(later.lower, later.upper))
            projector = ConeProjector(cone_n)
            for _ in range(50):
                v = projector.project(rng.normal(size=problem.d))
                assert cone_member(cone_t, v, tol=1e-7)

    @pytest.mark.parametrize("mode, regions", [("aggregation", 1), ("aggregation+ghost", 3)])
    def test_region_built_once_per_box(self, monkeypatch, mode, regions):
        """The risk region, and its archive, last until the ghost box changes."""
        built = []
        init = saa.RiskRegion.__init__

        def recording(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(saa.RiskRegion, "__init__", recording)
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=30, dn=10, replications=2, gap_tol=0.0, var_tol=0.0,
                        max_iterations=3, mode=mode)
        _, history = run_saa(problem, dist, cfg, 31)
        assert len(history) == 3 and len(built) == regions

    def test_all_candidates_feasible_for_original_region(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=40, dn=20, replications=4, gap_tol=0.0, var_tol=0.0,
                        max_iterations=3, mode="aggregation+ghost")
        _, history = run_saa(problem, dist, cfg, 17)
        for state in history:
            for x in state.solutions:
                assert in_region(problem.region, x, tol=1e-7)

    @pytest.mark.parametrize("empirical", [False, True])
    def test_pick_has_the_lowest_exact_cvar(self, empirical):
        problem, dist = toy_problem(3)
        if empirical:
            scen = skewed_scenarios(3, 400, 7)
            source = EmpiricalDistribution(scen)
            problem = PortfolioProblem(problem.region, problem.beta, mu=source.mean)
        else:
            source = dist

        def exact(x):  # (CVaR, VaR): the pick's order
            if empirical:
                _, var, cvar = _loss_tail(scen, x, problem.beta)
                assert cvar == discrete_cvar(scen, x, problem.beta)
            else:
                var, cvar, _ = portfolio_loss_stats(dist, x, problem.beta)
            return cvar, var

        cfg = SaaConfig(n0=40, dn=20, replications=4, gap_tol=0.0, var_tol=0.0,
                        max_iterations=2, mode="basic-sampling")
        best, history = run_saa(problem, source, cfg, 23)
        lowest = min(exact(x) for state in history for x in state.solutions)
        assert len(history) == 2
        assert exact(best.x) == lowest and best.cvar == lowest[0]
        # validation_n is accepted and unread
        again, _ = run_saa(problem, source, replace(cfg, validation_n=1), 23)
        assert np.array_equal(again.x, best.x) and again.cvar == best.cvar

    def test_source_without_exact_cvar_is_refused_up_front(self, monkeypatch):
        problem, dist = toy_problem()
        monkeypatch.setattr(saa, "sample", lambda *args: pytest.fail("SAA ran"))
        with pytest.raises(ConfigError, match="elliptical or empirical"):
            run_saa(problem, SimpleNamespace(draw=dist.draw, d=dist.d), SaaConfig(), 1)

    def test_history_serialization(self, tmp_path):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=30, dn=10, replications=3, gap_tol=1.0, var_tol=1.0,
                        max_iterations=2, mode="aggregation")
        _, history = run_saa(problem, dist, cfg, 29)
        path = tmp_path / "hist.jsonl"
        write_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(history)
        rec = json.loads(lines[0])
        assert {"iteration", "n", "lower", "upper", "nu", "solutions", "gaps",
                "ci_halfwidths", "nonrisk_prob", "seeds", "elapsed"} <= set(rec)

    @pytest.fixture(scope="class")
    def criterion_09(self):
        """Criterion 09's aggregating SAA runs: (surrogate, scenario file, problem, histories)."""
        scen = skewed_scenarios(12, 3000, child_seed(90_900, _T_CASE, 0))
        source = EmpiricalDistribution(scen)
        surrogate = fit_from_returns(scen.points, "student-t", nu=4.0, weights=scen.probs)
        problem = PortfolioProblem(FeasibleRegion(12, 1.0, upper=np.ones(12)), 0.99,
                                   mu=source.mean, mode=P1, cardinality=Cardinality(4))
        histories = {}
        for mode in ("aggregation", "aggregation+ghost"):
            cfg = SaaConfig(n0=200, dn=100, replications=10, gap_tol=0.0, var_tol=0.0,
                            max_iterations=4, mode=mode)
            histories[mode] = run_saa(problem, source, cfg, child_seed(90_900, _T_CASE, 1),
                                      surrogate=surrogate)[1]
        return surrogate, scen, problem, histories

    @staticmethod
    def _region(surrogate, problem, state):
        box = problem.region.with_bounds(state.lower, state.upper)
        return RiskRegion(surrogate, conic_hull(box), problem.beta)

    @pytest.mark.parametrize("mode", ["aggregation", "aggregation+ghost"])
    def test_nonrisk_prob_is_read_off_the_replication_draws(self, criterion_09, mode):
        surrogate, scen, problem, histories = criterion_09
        source = EmpiricalDistribution(scen)
        for state in histories[mode]:
            rr = self._region(surrogate, problem, state)
            reports = [aggregation_sampling(rr, source, state.n, s) for s in state.seeds]
            expected = (sum(r.n_nonrisk for r in reports)
                        / (sum(r.effective_sample_size for r in reports) - 1))
            assert state.nonrisk_prob == expected

    @pytest.mark.parametrize("mode", ["aggregation", "aggregation+ghost"])
    def test_nonrisk_prob_within_four_sd_of_the_exact_file_mass(self, criterion_09, mode):
        # The pooled inverse binomial estimate of q from M replications of n
        # risk draws each has sd about (1 - q) sqrt(q / (M n)).
        surrogate, scen, problem, histories = criterion_09
        for state in histories[mode]:
            rr = self._region(surrogate, problem, state)
            exact = float(scen.probs[~classify_mask(rr, scen.points, use_shortcuts=False)].sum())
            sd = (1.0 - exact) * np.sqrt(exact / (len(state.seeds) * state.n))
            assert abs(state.nonrisk_prob - exact) <= 4 * sd, state.iteration

    def test_basic_mode_has_no_nonrisk_prob(self):
        problem, dist = toy_problem()
        cfg = SaaConfig(n0=30, dn=10, replications=2, max_iterations=1, mode="basic-sampling")
        _, history = run_saa(problem, dist, cfg, 3)
        assert history[0].nonrisk_prob is None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SaaConfig(replications=1)
        with pytest.raises(ConfigError):
            SaaConfig(mode="bogus")
        with pytest.raises(ConfigError):
            SaaConfig(alpha_gap=0.4)
        for alpha in (0.01, 0.3, 0.5, 1.0):
            with pytest.raises(ConfigError):
                SaaConfig(alpha_ghost=alpha)
        with pytest.raises(ConfigError):
            SaaConfig(validation_n=0)
        with pytest.raises(ConfigError):
            SaaConfig(prob_estimate_n=0)
