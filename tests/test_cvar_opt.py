"""Discrete CVaR, the auxiliary LP, the exact solver, and branch-and-bound."""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import (cvar_at, elliptical_objective_oracle, in_region, ru_lp_oracle,
                     simplex_cvar_oracle, tail_subgradient_at, var_at)
from riskscen import cvar_opt
from riskscen.cones import FeasibleRegion, conic_hull
from riskscen.cvar_opt import (P1, P3, Cardinality, PortfolioProblem, _loss_tail, _risk,
                               discrete_cvar, solve_cardinality, solve_exact_elliptical, solve_lp)
from riskscen.distributions import (EllipticalDistribution, EmpiricalDistribution, ScenarioSet,
                                    fit_from_returns, load_scenarios, portfolio_loss_stats, sample)
from riskscen.errors import ConfigError, SolverError
from riskscen.risk_region import RiskRegion, classify_mask
from riskscen.scenario_gen import aggregation_reduction, aggregation_sampling
from riskscen.synthetic import skewed_scenarios, synthetic_returns, write_skewed_scenarios


def equal_losses(losses):
    """Scenario set on one asset whose losses are the given values."""
    pts = -np.asarray(losses, dtype=float)[:, None]
    return ScenarioSet.equally_weighted(pts)


class TestDiscreteCvar:
    def test_top_decile_single_atom(self):
        scen = equal_losses(range(1, 11))
        assert discrete_cvar(scen, [1.0], 0.9) == pytest.approx(10.0)

    def test_top_two_atoms(self):
        scen = equal_losses(range(1, 11))
        assert discrete_cvar(scen, [1.0], 0.8) == pytest.approx(9.5)

    def test_atom_splitting(self):
        scen = ScenarioSet(np.array([[0.0], [-10.0]]), np.array([0.97, 0.03]))
        assert discrete_cvar(scen, [1.0], 0.95) == pytest.approx(6.0)

    def test_matches_quantile_quadrature_on_two_atoms(self):
        # (1/(1-beta)) * integral of the discrete quantile function
        scen = ScenarioSet(np.array([[0.0], [-10.0]]), np.array([0.97, 0.03]))
        beta = 0.95
        grid = np.linspace(beta, 1.0, 200_001)[:-1]
        qf = np.where(grid <= 0.97, 0.0, 10.0)  # discrete loss quantile function
        assert discrete_cvar(scen, [1.0], beta) == pytest.approx(qf.mean(), rel=1e-3)

    def test_var_atom(self):
        scen = equal_losses(range(1, 11))
        assert _loss_tail(scen, [1.0], 0.9)[1] == pytest.approx(9.0)


@st.composite
def dyadic_scenario_sets(draw):
    """Integer losses full of ties over probabilities w / 2**J with integer w,
    so every partial sum of probabilities is exact. Weights are equal, random
    integers (the last padded up to the power of two), or aggregation_sampling's
    shape: equal risk weights and one heavy atom last. beta is a multiple of
    the weight unit (beta * n an integer for equal weights) or is not."""
    total = 2 ** draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["equal", "integer", "atom"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "equal":
        w = np.ones(total)
    elif shape == "integer":
        w = rng.integers(1, 5, draw(st.integers(1, total // 2))).astype(float)
        total = 2 ** max(1, int(np.ceil(np.log2(w.sum()))))
        w[-1] += total - w.sum()
    else:
        n_risk = draw(st.integers(0, total - 1))
        w = np.append(np.ones(n_risk), total - n_risk)
    d = draw(st.integers(1, 3))
    pts = rng.integers(-3, 4, (w.size, d)).astype(float)
    x = rng.integers(0, 4, d).astype(float)
    beta = draw(st.one_of(
        st.integers(1, total - 1).map(lambda i: i / total),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
        st.floats(0.01, 0.99)))
    return ScenarioSet(pts, w / total), x, beta


class TestLossSelection:
    """The selection VaR equals the exact VaR of `oracles.var_at`, whose
    prefix sums are correctly rounded, and the CVaR and subgradient match
    the oracles' bit for bit."""

    def _assert_exact(self, scen, x, beta):
        pts, probs = scen.points, scen.probs
        assert _loss_tail(scen, x, beta)[1] == var_at(pts, probs, beta, x)
        assert discrete_cvar(scen, x, beta) == cvar_at(pts, probs, beta, x)
        assert np.array_equal(_risk(EmpiricalDistribution(scen), beta)(x)[2](),
                              tail_subgradient_at(pts, probs, beta, x))

    @given(dyadic_scenario_sets())
    @settings(max_examples=400, deadline=None)
    def test_ties_and_dyadic_weights(self, case):
        self._assert_exact(*case)

    # A running sum of the ~beta*n masses below the VaR drifts past the 1e-12
    # slack in the last five cases.
    _EQUAL = [(20_000, 0.95), (20_000, 0.99), (200_000, 0.95), (200_000, 0.99),
              (100_000, 0.9), (100_000, 0.95), (100_000, 0.99), (100_000, 0.999),
              (1_000_000, 0.5)]

    @pytest.mark.parametrize("n, beta", _EQUAL, ids=[f"{b}-{n}" for n, b in _EQUAL])
    def test_equal_weights_at_scale(self, n, beta):
        rng = np.random.default_rng(n)
        scen = ScenarioSet.equally_weighted(0.01 + 0.05 * rng.standard_t(4, (n, 4)))
        self._assert_exact(scen, rng.dirichlet(np.ones(4)), beta)


@st.composite
def tied_scenario_sets(draw):
    """Small integer scenario sets, some losses nudged by 5e-9 (a near-tie that
    np.isclose would merge), an integer point x where ties are exact, and an
    arbitrary second point."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 16))
    rows = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    pts = np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)
    pts[:, 0] += draw(st.lists(st.sampled_from([0.0, 5e-9, -5e-9]), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    x = np.array(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)), dtype=float)
    other = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    beta = draw(st.floats(0.05, 0.95))
    return ScenarioSet(pts, w / w.sum()), x, other, beta


class TestCvarSubgradient:
    def test_near_tie_above_var_keeps_its_probability(self):
        # Losses on asset 1: 5, 3+5e-9, 3 and seventeen zeros; the near-tie
        # scenario also loses 10 on asset 2. Spreading the leftover tail mass
        # over near-ties gave that scenario weight 0.06 > p = 0.05, and the
        # cut read 5.0 at (0, 1), where the CVaR is 4.1667.
        pts = np.zeros((20, 2))
        pts[:3, 0] = [-5.0, -(3.0 + 5e-9), -3.0]
        pts[1, 1] = -10.0
        scen = ScenarioSet.equally_weighted(pts)
        g = _risk(EmpiricalDistribution(scen), 0.88)([1.0, 0.0])[2]()
        assert g @ [0.0, 1.0] <= discrete_cvar(scen, [0.0, 1.0], 0.88) + 1e-12
        assert g @ [1.0, 0.0] == pytest.approx(discrete_cvar(scen, [1.0, 0.0], 0.88), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(tied_scenario_sets())
    def test_cut_is_valid_everywhere_and_tight_at_its_point(self, case):
        scen, x, other, beta = case
        g = _risk(EmpiricalDistribution(scen), beta)(x)[2]()
        cvar_other = discrete_cvar(scen, other, beta)
        assert g @ other <= cvar_other + 1e-12 * (1.0 + abs(cvar_other))
        cvar = discrete_cvar(scen, x, beta)
        assert g @ x == pytest.approx(cvar, abs=1e-12 * (1.0 + abs(cvar)))


class TestProblemValidation:
    def test_p1_needs_reachable_target(self):
        region = FeasibleRegion(2, 1.0)
        with pytest.raises(ConfigError):
            PortfolioProblem(region, 0.95, mu=np.array([0.01, 0.02]), tau=0.05)

    def test_default_target_is_mean(self):
        problem = PortfolioProblem(FeasibleRegion(2, 1.0), 0.95, mu=np.array([0.01, 0.03]))
        assert problem.tau == pytest.approx(0.02)

    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            PortfolioProblem(FeasibleRegion(2, 1.0), 0.95, mu=np.zeros(2), mode="P3", lam=1.5)


class TestSolveLp:
    def test_single_asset(self):
        scen = equal_losses([1.0, 2.0, 5.0, -1.0])
        problem = PortfolioProblem(FeasibleRegion(1, 1.0), 0.9, mu=np.array([0.02]), mode="P3")
        sol = solve_lp(problem, scen)
        assert sol.x == pytest.approx([1.0], abs=1e-9)
        assert sol.cvar == pytest.approx(discrete_cvar(scen, [1.0], 0.9), abs=1e-12)

    def test_symmetric_assets_split_evenly(self):
        rng = np.random.default_rng(0)
        half = rng.normal(size=(400, 2))
        pts = np.vstack([half, half[:, ::-1]])  # symmetric under coordinate swap
        scen = ScenarioSet.equally_weighted(pts)
        problem = PortfolioProblem(FeasibleRegion(2, 1.0), 0.9, mu=np.zeros(2),
                                   mode="P3", lam=1.0)
        sol = solve_lp(problem, scen)
        # symmetry + convexity make (0.5, 0.5) optimal; the LP may return any
        # point of the flat optimal face, so compare values and stay close
        assert sol.lp_objective == pytest.approx(
            discrete_cvar(scen, [0.5, 0.5], 0.9), abs=1e-7)
        assert abs(sol.x[0] - 0.5) < 0.05
        # grid search over x1 confirms the midpoint value is the minimum
        grid_vals = [discrete_cvar(scen, [a, 1 - a], 0.9) for a in np.linspace(0, 1, 101)]
        assert min(grid_vals) >= sol.lp_objective - 1e-9

    def test_lp_value_equals_discrete_cvar_at_optimum(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            d = int(rng.integers(2, 6))
            scen = ScenarioSet.equally_weighted(rng.normal(size=(60, d)) * 0.1)
            beta = float(rng.uniform(0.8, 0.97))
            problem = PortfolioProblem(FeasibleRegion(d, 1.0), beta,
                                       mu=np.zeros(d), mode="P3", lam=1.0)
            sol = solve_lp(problem, scen)
            assert sol.lp_objective == pytest.approx(
                discrete_cvar(scen, sol.x, beta), abs=1e-7)

    def test_matches_grid_oracle_d4(self):
        rng = np.random.default_rng(2)
        for trial in range(3):
            scen = ScenarioSet.equally_weighted(rng.normal(size=(60, 4)) * 0.1)
            problem = PortfolioProblem(FeasibleRegion(4, 1.0), 0.9,
                                       mu=np.zeros(4), mode="P3", lam=1.0)
            sol = solve_lp(problem, scen)
            oracle = simplex_cvar_oracle(scen.points, scen.probs, 0.9)
            assert sol.lp_objective <= oracle + 1e-9
            assert sol.lp_objective == pytest.approx(oracle, abs=1e-4)

    def test_budget_and_bounds_respected(self):
        rng = np.random.default_rng(3)
        scen = ScenarioSet.equally_weighted(rng.normal(size=(80, 3)) * 0.1)
        region = FeasibleRegion(3, 1.0, A=[[1.0, 1.0, 0.0]], b=[0.6], upper=[0.5, 0.5, 1.0])
        problem = PortfolioProblem(region, 0.9, mu=np.array([0.01, 0.011, 0.012]))
        sol = solve_lp(problem, scen)
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(sol.x <= np.array([0.5, 0.5, 1.0]) + 1e-8)
        assert sol.x[0] + sol.x[1] <= 0.6 + 1e-8
        assert sol.x @ problem.mu >= problem.tau - 1e-8

    def test_return_constraint_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        scen = ScenarioSet.equally_weighted(rng.normal(size=(100, 3)) * 0.1 + 0.01)
        mu = np.array([0.005, 0.01, 0.02])
        prev = -np.inf
        for tau in [0.005, 0.01, 0.015, 0.019]:
            problem = PortfolioProblem(FeasibleRegion(3, 1.0), 0.9, mu=mu, tau=tau)
            val = solve_lp(problem, scen).objective
            assert val >= prev - 1e-9
            prev = val

    def test_infeasible_reported(self):
        scen = equal_losses([1.0, 2.0])
        region = FeasibleRegion(1, 1.0)
        problem = PortfolioProblem(region, 0.9, mu=np.array([0.05]), tau=0.04)
        # tighten: require return 0.04 but force x through a row making it impossible
        problem = PortfolioProblem(
            FeasibleRegion(2, 1.0, A=[[1.0, 0.0]], b=[0.2]), 0.9,
            mu=np.array([0.05, 0.0]), tau=0.04)
        scen2 = ScenarioSet.equally_weighted(np.zeros((3, 2)))
        sol = solve_lp(problem, scen2)
        assert sol.status == "infeasible"

    def test_aggregation_invariance(self):
        # tail atoms at the reduced optimum all sit in the risk region, so
        # the reduced problem reproduces the original optimal value
        dist = EllipticalDistribution("normal", np.full(3, 0.01), 0.05 * np.eye(3))
        scen = sample(dist, 300, 15)
        beta = 0.95
        problem = PortfolioProblem(FeasibleRegion(3, 1.0), beta, mu=dist.mu, mode="P3", lam=1.0)
        region = RiskRegion(dist, conic_hull(problem.region), beta)
        sol = solve_lp(problem, scen)
        losses = -(scen.points @ sol.x)
        var = _loss_tail(scen, sol.x, beta)[1]
        tail_atoms = scen.points[losses >= var - 1e-12]
        assert classify_mask(region, tail_atoms).all(), "fixture broke: tail not all risk"
        reduced = aggregation_reduction(region, scen)
        assert reduced.n < scen.n
        sol_red = solve_lp(problem, reduced)
        assert sol_red.lp_objective == pytest.approx(sol.lp_objective, abs=1e-7)


@pytest.fixture(scope="module")
def d10_market():
    """The t(4) fit used by the experiments at d=10 with a 0.3 quota, and two
    600-risk-scenario sets: a plain sample and an aggregation sample."""
    _, returns = synthetic_returns(10, 240, 7, family="student-t")
    dist = fit_from_returns(returns, "student-t", nu=4.0)
    region = FeasibleRegion(10, 1.0, upper=np.full(10, 0.3))
    rr = RiskRegion(dist, conic_hull(region), 0.95)
    sets = {"equal": sample(dist, 600, 31),
            "aggregated": aggregation_sampling(rr, dist, 600, 32).scenarios}
    return dist, region, sets


class TestSolveLpOracle:
    @pytest.mark.parametrize("weights", ["equal", "aggregated"])
    @pytest.mark.parametrize("mode,lam", [(P1, 1.0), (P3, 0.5), (P3, 0.0)])
    def test_matches_highs_ru_lp_at_d10_quota(self, d10_market, weights, mode, lam):
        dist, region, sets = d10_market
        scen = sets[weights]
        problem = PortfolioProblem(region, 0.95, mu=dist.mu, mode=mode, lam=lam)
        sol = solve_lp(problem, scen)
        ref = ru_lp_oracle(scen.points, scen.probs, 0.95, region.lower, region.upper, dist.mu,
                           tau=problem.tau if mode == P1 else None, lam=lam)
        tol = 1e-9 * (1.0 + abs(ref))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref, abs=tol)
        assert sol.lp_objective == pytest.approx(ref, abs=tol)
        assert sol.lp_objective <= sol.objective + 1e-14 * (1.0 + abs(sol.objective))
        assert in_region(region, sol.x, tol=1e-9)
        if mode == P1:
            assert sol.x @ dist.mu >= problem.tau - 1e-9


class TestSourceTail:
    """The exact tail that SAA screening and the experiments grade portfolios by."""

    @staticmethod
    def sampled(source, x, beta, n, seed):
        """CVaR of n draws, and four standard errors of it by the CLT.

        The estimator's influence terms are VaR + (L - VaR)^+ / (1 - beta).
        """
        losses, var, cvar = _loss_tail(sample(source, n, seed), x, beta)
        sd = np.std(var + np.maximum(losses - var, 0.0) / (1.0 - beta), ddof=1)
        return cvar, 4.0 * sd / np.sqrt(n)

    def test_t4_elliptical_lies_in_the_clt_band(self):
        _, R = synthetic_returns(5, 240, 3, family="student-t")
        dist = fit_from_returns(R, "student-t", nu=4.0)
        x = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        var, cvar, _ = _risk(dist, 0.95)(x)
        assert (var, cvar) == portfolio_loss_stats(dist, x, 0.95)[:2]
        estimate, band = self.sampled(dist, x, 0.95, 200_000, 5)
        assert abs(estimate - cvar) <= band < 0.05 * abs(cvar)

    def test_scenario_file_lies_in_the_clt_band(self, tmp_path):
        scen = load_scenarios(write_skewed_scenarios(tmp_path / "scen.csv", 5, 3000, 4))
        source = EmpiricalDistribution(scen)
        x = np.full(5, 0.2)
        var, cvar, _ = _risk(source, 0.99)(x)
        assert (var, cvar) == _loss_tail(scen, x, 0.99)[1:]
        estimate, band = self.sampled(source, x, 0.99, 200_000, 6)
        assert abs(estimate - cvar) <= band < 0.05 * abs(cvar)

    def test_other_sources_are_refused(self):
        with pytest.raises(ConfigError, match="elliptical or empirical"):
            _risk(equal_losses([1.0, 2.0]), 0.9)


class TestSolveExact:
    def test_uniform_on_simplex_for_isotropic(self):
        d = 4
        dist = EllipticalDistribution("normal", np.zeros(d), np.eye(d))
        problem = PortfolioProblem(FeasibleRegion(d, 1.0), 0.95, mu=np.zeros(d),
                                   mode="P3", lam=1.0)
        sol = solve_exact_elliptical(problem, dist)
        assert sol.x == pytest.approx(np.full(d, 0.25), abs=1e-6)

    def test_anisotropic_two_asset(self):
        dist = EllipticalDistribution("normal", np.zeros(2), np.diag([1.0, 2.0]))
        problem = PortfolioProblem(FeasibleRegion(2, 1.0), 0.95, mu=np.zeros(2),
                                   mode="P3", lam=1.0)
        sol = solve_exact_elliptical(problem, dist)
        assert sol.x == pytest.approx([0.8, 0.2], abs=1e-6)

    def test_return_constraint_active_when_binding(self):
        mu = np.array([0.0, 0.02])
        dist = EllipticalDistribution("normal", mu, np.diag([0.01, 0.2]))
        problem = PortfolioProblem(FeasibleRegion(2, 1.0), 0.95, mu=mu, tau=0.015)
        sol = solve_exact_elliptical(problem, dist)
        assert sol.x @ mu >= 0.015 - 1e-8

    def test_agreement_with_embedded_lp_at_desk_scale(self):
        # coarse bridge at the dense solver's comfortable size; the tight
        # 0.5% check against a 2e5-scenario LP runs in the slow marker below
        rng = np.random.default_rng(21)
        R = rng.multivariate_normal([0.01] * 3, 0.0004 * (np.eye(3) + 0.3), size=500)
        dist = fit_from_returns(R, "normal")
        problem = PortfolioProblem(FeasibleRegion(3, 1.0), 0.95, mu=dist.mu)
        exact = solve_exact_elliptical(problem, dist)
        scen = sample(dist, 1200, 8)
        lp_sol = solve_lp(problem, scen)
        assert lp_sol.cvar == pytest.approx(exact.cvar, rel=0.1)

    @pytest.mark.parametrize("mode,lam", [(P1, 1.0), (P3, 0.5), (P3, 0.0)])
    def test_matches_slsqp_oracle_at_d10_quota(self, mode, lam):
        self._check_against_slsqp(10, 7, mode, lam)

    @pytest.mark.parametrize("d,seed,mode,lam", [(4, 1, P3, 0.5), (6, 1, P1, 1.0),
                                                 (8, 2, P3, 0.5), (10, 1, P1, 1.0)])
    def test_matches_slsqp_oracle_with_dependent_passive_columns(self, d, seed, mode, lam):
        # markets whose optima are vertices of the quota box on the budget
        # plane; the least-distance programs of return floors through them
        # reach exactly dependent passive columns, which
        # test_cones.py::TestProjectPolytope covers
        self._check_against_slsqp(d, seed, mode, lam)

    @pytest.mark.parametrize("mode,lam", [(P1, 1.0), (P3, 0.5)])
    def test_matches_slsqp_oracle_with_lower_bounds(self, mode, lam):
        self._check_against_slsqp(10, 7, mode, lam, lower=0.05)

    def test_mean_must_be_the_distributions(self):
        dist = EllipticalDistribution("normal", np.full(3, 0.01), 0.05 * np.eye(3))
        problem = PortfolioProblem(FeasibleRegion(3, 1.0), 0.95, mu=np.array([0.01, 0.01, 0.02]))
        with pytest.raises(ConfigError):
            solve_exact_elliptical(problem, dist)

    @pytest.mark.parametrize("mode,lam", [(P1, 1.0), (P3, 0.5)])
    def test_cvar_is_the_closed_form_at_the_solution(self, mode, lam):
        # run_stability grades gaps with portfolio_loss_stats against this cvar,
        # so at the optimum itself the gap reads exactly 0
        _, returns = synthetic_returns(10, 240, 7, family="student-t")
        dist = fit_from_returns(returns, "student-t", nu=4.0)
        problem = PortfolioProblem(FeasibleRegion(10, 1.0, upper=np.full(10, 0.3)), 0.95,
                                   mu=dist.mu, mode=mode, lam=lam)
        sol = solve_exact_elliptical(problem, dist)
        assert sol.cvar == portfolio_loss_stats(dist, sol.x, 0.95)[1]

    def test_uncertified_solve_raises(self, monkeypatch):
        monkeypatch.setattr(cvar_opt, "_CUTS_PER_DIM", 0)
        _, returns = synthetic_returns(10, 240, 7, family="student-t")
        dist = fit_from_returns(returns, "student-t", nu=4.0)
        problem = PortfolioProblem(FeasibleRegion(10, 1.0, upper=np.full(10, 0.3)), 0.95,
                                   mu=dist.mu)
        with pytest.raises(SolverError):
            solve_exact_elliptical(problem, dist)

    @staticmethod
    def _check_against_slsqp(d, seed, mode, lam, lower=0.0):
        _, returns = synthetic_returns(d, 240, seed, family="student-t")
        dist = fit_from_returns(returns, "student-t", nu=4.0)
        region = FeasibleRegion(d, 1.0, lower=lower, upper=np.full(d, 0.3))
        problem = PortfolioProblem(region, 0.95, mu=dist.mu, mode=mode, lam=lam)
        sol = solve_exact_elliptical(problem, dist)
        weight = lam * dist.tail_cvar(0.95)  # P3 objective: lam*tail*||Px|| - mu'x
        ref, _ = elliptical_objective_oracle(dist.factor, dist.mu, weight, 1.0, region.lower,
                                             region.upper, tau=problem.tau)
        assert sol.objective <= ref + 1e-9 * (1.0 + abs(sol.cvar))
        assert sol.lp_objective <= ref + 1e-9 * (1.0 + abs(ref))
        assert sol.objective - sol.lp_objective <= 1e-12 * (1.0 + abs(sol.objective))
        assert sol.lp_objective <= sol.objective + 1e-14 * (1.0 + abs(sol.objective))
        assert in_region(region, sol.x, tol=1e-9)
        if mode == P1:
            assert sol.x @ dist.mu >= problem.tau - 1e-9

    @pytest.mark.slow
    def test_agreement_with_large_sample_lp(self):
        # 2e5-scenario Rockafellar-Uryasev LP solved sparse by HiGHS's interior
        # point method, which takes a fraction of its dual simplex's time here.
        rng = np.random.default_rng(22)
        R = rng.multivariate_normal([0.01] * 5, 0.0004 * (np.eye(5) + 0.3), size=2000)
        dist = fit_from_returns(R, "normal")
        problem = PortfolioProblem(FeasibleRegion(5, 1.0), 0.95, mu=dist.mu)
        exact = solve_exact_elliptical(problem, dist)
        n = 200_000
        scen = sample(dist, n, 9)
        d, beta = 5, 0.95
        # columns: x(d), alpha, u(n)
        c = np.concatenate([np.zeros(d), [1.0], scen.probs / (1 - beta)])
        rows_x = sp.csr_matrix(-scen.points)
        A_ub = sp.hstack([rows_x, -np.ones((n, 1)), -sp.eye(n)], format="csr")
        A_ub = sp.vstack([A_ub, sp.csr_matrix(
            np.concatenate([-dist.mu, [0.0], np.zeros(n)])[None, :])], format="csr")
        b_ub = np.concatenate([np.zeros(n), [-problem.tau]])
        A_eq = sp.csr_matrix(np.concatenate([np.ones(d), [0.0], np.zeros(n)])[None, :])
        bounds = [(0, 1)] * d + [(None, None)] + [(0, None)] * n
        ref = linprog(c, A_ub, b_ub, A_eq, np.array([1.0]), bounds, method="highs-ipm")
        assert ref.status == 0
        assert abs(exact.cvar - ref.fun) / abs(exact.cvar) <= 0.005


class TestCardinality:
    def _random_instance(self, rng, d=6, n=40):
        mu = rng.uniform(0.005, 0.02, size=d)
        pts = mu + rng.normal(size=(n, d)) * rng.uniform(0.03, 0.08, size=d)
        scen = ScenarioSet.equally_weighted(pts)
        problem = PortfolioProblem(FeasibleRegion(d, 1.0), 0.9, mu=mu, mode="P3",
                                   lam=0.9, cardinality=Cardinality(2))
        return problem, scen

    def test_limit_equal_to_dimension_matches_lp(self):
        rng = np.random.default_rng(5)
        scen = ScenarioSet.equally_weighted(rng.normal(size=(50, 3)) * 0.1)
        base = PortfolioProblem(FeasibleRegion(3, 1.0), 0.9, mu=np.zeros(3), mode="P3")
        card = PortfolioProblem(FeasibleRegion(3, 1.0), 0.9, mu=np.zeros(3), mode="P3",
                                cardinality=Cardinality(3))
        a = solve_lp(base, scen)
        b = solve_cardinality(card, scen)
        assert b.objective == pytest.approx(a.objective, abs=1e-8)

    def test_exhaustive_enumeration_agreement(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            problem, scen = self._random_instance(rng)
            sol = solve_cardinality(problem, scen)
            best = np.inf
            region = problem.region
            for support in itertools.combinations(range(6), 2):
                upper = np.zeros(6)
                for j in support:
                    upper[j] = region.upper[j]
                try:
                    sub_region = FeasibleRegion(6, 1.0, upper=upper)
                except ConfigError:
                    continue
                sub = PortfolioProblem(sub_region, problem.beta, mu=problem.mu,
                                       mode="P3", lam=problem.lam)
                cand = solve_lp(sub, scen)
                if cand.status == "optimal":
                    best = min(best, cand.objective)
            assert sol.objective == pytest.approx(best, abs=1e-7)
            assert sol.z.sum() <= 2
            assert np.all(sol.x <= problem.region.upper * sol.z + 1e-8)

    def test_single_asset_limit_picks_best_discrete_cvar(self):
        rng = np.random.default_rng(7)
        d = 5
        pts = rng.normal(size=(60, d)) * 0.1
        scen = ScenarioSet.equally_weighted(pts)
        problem = PortfolioProblem(FeasibleRegion(d, 1.0), 0.9, mu=np.zeros(d), mode="P3",
                                   lam=1.0, cardinality=Cardinality(1))
        sol = solve_cardinality(problem, scen)
        singles = [discrete_cvar(scen, np.eye(d)[j], 0.9) for j in range(d)]
        assert sol.objective == pytest.approx(min(singles), abs=1e-9)
        assert sol.x[int(np.argmin(singles))] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mode,lam", [(P1, 1.0), (P3, 0.9)])
    def test_matches_enumeration_in_ghost_box(self, mode, lam):
        # A ghost-style box: one asset forced in by a positive lower bound,
        # uneven upper bounds below the budget.
        rng = np.random.default_rng(41)
        d, n, l = 8, 200, 3
        mu = rng.uniform(0.005, 0.02, size=d)
        scen = ScenarioSet.equally_weighted(
            mu + rng.standard_t(4, size=(n, d)) * rng.uniform(0.03, 0.08, size=d))
        lower = np.zeros(d)
        lower[2] = 0.05
        upper = np.array([0.5, 0.45, 0.6, 0.4, 0.5, 0.35, 0.55, 0.5])
        region = FeasibleRegion(d, 1.0, lower=lower, upper=upper)
        problem = PortfolioProblem(region, 0.95, mu=mu, mode=mode, lam=lam,
                                   cardinality=Cardinality(l))
        sol = solve_cardinality(problem, scen)
        values = []
        for support in itertools.combinations(range(d), l):
            inside = np.isin(np.arange(d), support)
            if np.any(lower[~inside] > 0):
                continue
            val = ru_lp_oracle(scen.points, scen.probs, 0.95, lower, np.where(inside, upper, 0.0),
                               mu, tau=problem.tau if mode == P1 else None, lam=lam)
            if val is not None:
                values.append(val)
        best = min(values)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-9 * (1.0 + abs(best)))
        assert sol.lp_objective <= sol.objective + 1e-14 * (1.0 + abs(sol.objective))
        assert np.count_nonzero(np.abs(sol.x) > 1e-9) <= l
        assert in_region(region, sol.x, tol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_root_within_the_limit_ends_without_branching(self, monkeypatch, seed):
        # every node is its parent's master plus one row, so a root whose
        # support already fits the limit is the answer and nothing is branched
        base = skewed_scenarios(12, 3000, 5)
        scen = sample(EmpiricalDistribution(base), 200, seed)
        problem = PortfolioProblem(FeasibleRegion(12, 1.0), 0.99, mu=base.probs @ base.points,
                                   cardinality=Cardinality(4))
        branches = []
        branch = cvar_opt._CuttingPlane.branch

        def counted(self, *args):
            branches.append(args)
            return branch(self, *args)

        monkeypatch.setattr(cvar_opt._CuttingPlane, "branch", counted)
        sol = solve_cardinality(problem, scen)
        assert branches == []
        assert sol.status == "optimal" and sol.z.sum() <= 4
        relaxed = solve_lp(replace(problem, cardinality=None), scen)
        assert sol.objective == pytest.approx(relaxed.objective,
                                              abs=2e-9 * (1.0 + abs(relaxed.objective)))

    @pytest.mark.slow
    @pytest.mark.parametrize("d, quota, max_assets, mode, lam",
                             [(30, 0.2, 5, P1, 1.0), (20, 0.3, 4, P3, 0.5)])
    def test_branching_search_matches_highs_milp(self, monkeypatch, d, quota, max_assets,
                                                 mode, lam):
        """2000 draws of a t(4) fit at beta 0.95, where the root breaks the
        limit and the search branches, against scipy's MILP (HiGHS) of the
        Rockafellar-Uryasev model with a binary per asset, to relative 1e-9.
        Budget 60 s per case; about 1 s on a 2-core host."""
        t0 = time.perf_counter()
        _, returns = synthetic_returns(d, 240, 7, family="student-t")
        dist = fit_from_returns(returns, "student-t", nu=4.0)
        scen = sample(dist, 2000, 11)
        region = FeasibleRegion(d, 1.0, upper=np.full(d, quota))
        problem = PortfolioProblem(region, 0.95, mu=dist.mu, mode=mode, lam=lam,
                                   cardinality=Cardinality(max_assets))
        branches = []
        branch = cvar_opt._CuttingPlane.branch

        def counted(self, *args):
            branches.append(args)
            return branch(self, *args)

        monkeypatch.setattr(cvar_opt._CuttingPlane, "branch", counted)
        sol = solve_cardinality(problem, scen)
        ref = ru_lp_oracle(scen.points, scen.probs, 0.95, region.lower, region.upper, dist.mu,
                           tau=problem.tau if mode == P1 else None, lam=lam,
                           max_assets=max_assets)
        assert len(branches) > 0
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref, abs=1e-9 * (1.0 + abs(ref)))
        assert np.count_nonzero(sol.x > 1e-9) <= max_assets
        assert in_region(region, sol.x, tol=1e-9)
        elapsed = time.perf_counter() - t0
        print(f"\n[branching] d={d}: {len(branches)} branches, rel diff "
              f"{(sol.objective - ref) / abs(ref):.1e} ({elapsed:.1f}s / budget 60s)")
        assert elapsed < 60, f"overran its 60 s budget: {elapsed:.1f}s"

    def test_infeasible_when_caps_cannot_reach_budget(self):
        problem = PortfolioProblem(
            FeasibleRegion(4, 1.0, upper=0.3), 0.9, mu=np.zeros(4), mode="P3",
            cardinality=Cardinality(2))
        scen = ScenarioSet.equally_weighted(np.zeros((3, 4)))
        assert solve_cardinality(problem, scen).status == "infeasible"


class TestExactCardinality:
    """The exact elliptical solver under a support limit: the branch-and-bound
    of solve_cardinality on the closed-form oracle."""

    @staticmethod
    def _problem(d, l, quota, mode, lam, seed=7):
        _, returns = synthetic_returns(d, 240, seed, family="student-t")
        dist = fit_from_returns(returns, "student-t", nu=4.0)
        problem = PortfolioProblem(FeasibleRegion(d, 1.0, upper=np.full(d, quota)), 0.95,
                                   mu=dist.mu, mode=mode, lam=lam, cardinality=Cardinality(l))
        return problem, dist

    @staticmethod
    def _enumerated(problem, dist):
        """Best continuous exact objective over every support of max_assets assets."""
        region, best = problem.region, np.inf
        for support in itertools.combinations(range(region.d), problem.cardinality.max_assets):
            upper = np.where(np.isin(np.arange(region.d), support), region.upper, 0.0)
            sub = replace(problem, region=FeasibleRegion(region.d, 1.0, upper=upper),
                          cardinality=None)
            try:
                best = min(best, solve_exact_elliptical(sub, dist).objective)
            except SolverError as err:  # the support cannot reach P1's return floor
                assert "infeasible" in str(err)
        return best

    def test_matches_enumeration_of_every_support(self, monkeypatch):
        """t(4) fits at d 8-12, P1 and P3, against the continuous exact solver on
        every support, to relative 1e-10; at least one case branches.
        Budget 60 s; about 4 s on a 2-core host."""
        t0 = time.perf_counter()
        branches = []
        branch = cvar_opt._CuttingPlane.branch

        def counted(self, *args):
            branches[-1] += 1
            return branch(self, *args)

        monkeypatch.setattr(cvar_opt._CuttingPlane, "branch", counted)
        for d, l, quota in [(10, 3, 0.5), (8, 2, 0.6), (12, 4, 0.35)]:
            for mode, lam in [(P1, 1.0), (P3, 0.5)]:
                problem, dist = self._problem(d, l, quota, mode, lam)
                branches.append(0)
                sol = solve_exact_elliptical(problem, dist)
                best = self._enumerated(problem, dist)
                assert sol.objective == pytest.approx(best, rel=1e-10), (d, l, quota, mode)
                # A master point meets its rows to lp.DUAL_STOP_TOL only: at (8, 2, 0.6, P3)
                # it falls 4e-13 short of the budget, so the positively homogeneous
                # objective reads 2.2e-14 below the master bound there.
                assert sol.lp_objective <= sol.objective + 1e-12 * (1.0 + abs(sol.objective))
                assert sol.z.sum() <= l and np.count_nonzero(sol.x > 1e-9) <= l
                assert np.all(sol.x <= quota * sol.z + 1e-9)
                assert in_region(problem.region, sol.x, tol=1e-9)
                if mode == P1:
                    assert sol.x @ dist.mu >= problem.tau - 1e-9
        assert max(branches) > 0, branches
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"overran its 60 s budget: {elapsed:.1f}s"

    def test_caps_that_cannot_reach_the_budget_raise(self):
        problem, dist = self._problem(10, 2, 0.3, P1, 1.0)
        with pytest.raises(SolverError, match="infeasible"):
            solve_exact_elliptical(problem, dist)

    def test_gradient_cut_is_valid_everywhere_and_tight_at_its_point(self):
        _, dist = self._problem(6, 2, 0.5, P1, 1.0)
        risk = _risk(dist, 0.95)
        rng = np.random.default_rng(3)
        for x, other in rng.dirichlet(np.ones(6), size=(20, 2)):
            _, cvar, subgradient = risk(x)
            g = subgradient()
            assert g @ x == pytest.approx(cvar, abs=1e-12 * (1.0 + abs(cvar)))
            cvar_other = risk(other)[1]
            assert g @ other <= cvar_other + 1e-12 * (1.0 + abs(cvar_other))
