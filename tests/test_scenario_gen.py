"""Aggregation sampling: weights, draw accounting, laws, and consistency."""

import logging

import numpy as np
import pytest

from riskscen import risk_region, scenario_gen
from riskscen.cones import FeasibleRegion, conic_hull
from riskscen.cvar_opt import discrete_cvar
from riskscen.distributions import EllipticalDistribution, EmpiricalDistribution, ScenarioSet
from riskscen.errors import ConfigError
from riskscen.risk_region import RiskRegion, classify_mask, estimate_nonrisk_prob, is_risk
from riskscen.scenario_gen import (aggregation_reduction, aggregation_sampling,
                                   expected_effective_sample_size, raw_stream)
from riskscen.seeding import child_seed
from riskscen.synthetic import skewed_scenarios
from shapes import SHAPES, quota_region


def make_region(d=2, beta=0.95, threshold=None, family="normal", nu=None):
    dist = EllipticalDistribution(family, np.zeros(d), np.eye(d), nu)
    return RiskRegion(dist, conic_hull(FeasibleRegion(d, 1.0)), beta, threshold=threshold)


class TestAggregationSampling:
    def test_report_shape_and_weights(self):
        region = make_region()
        rep = aggregation_sampling(region, region.dist, 50, 123)
        assert rep.n_risk == 50
        assert rep.scenarios.n == 51
        assert rep.effective_sample_size == rep.n_risk + rep.n_nonrisk
        total = rep.n_risk + rep.n_nonrisk
        assert rep.scenarios.probs[:-1] == pytest.approx(np.full(50, 1.0 / total))
        assert rep.scenarios.probs[-1] == pytest.approx(rep.n_nonrisk / total)
        assert rep.scenarios.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        region = make_region()
        a = aggregation_sampling(region, region.dist, 80, 9)
        b = aggregation_sampling(region, region.dist, 80, 9)
        assert np.array_equal(a.scenarios.points, b.scenarios.points)
        assert a.effective_sample_size == b.effective_sample_size

    def test_everything_risk_fires_else_branch(self):
        region = make_region(threshold=0.0)
        rep = aggregation_sampling(region, region.dist, 10, 3)
        raw = raw_stream(region.dist, 3, 11)
        assert rep.n_nonrisk == 1
        assert rep.effective_sample_size == 11
        assert np.allclose(rep.scenarios.points, raw)
        assert rep.scenarios.probs == pytest.approx(np.full(11, 1 / 11))

    def test_matches_replayed_raw_stream(self):
        region = make_region()
        rep = aggregation_sampling(region, region.dist, 60, 21)
        raw = raw_stream(region.dist, 21, rep.effective_sample_size)
        mask = classify_mask(region, raw)
        assert int(mask.sum()) == rep.n_risk
        assert np.array_equal(rep.scenarios.points[:-1], raw[mask])
        assert rep.scenarios.points[-1] == pytest.approx(raw[~mask].mean(axis=0))
        # weighted mean of the output equals the raw stream mean
        assert rep.scenarios.mean() == pytest.approx(raw.mean(axis=0), abs=1e-12)

    def test_output_mean_near_distribution_mean(self):
        region = make_region()
        rep = aggregation_sampling(region, region.dist, 200, 5)
        envelope = 4.0 / np.sqrt(rep.effective_sample_size)
        assert np.abs(rep.scenarios.mean()).max() < envelope

    def test_center_verdict_is_reported(self, monkeypatch, caplog):
        region = make_region()
        rep = aggregation_sampling(region, region.dist, 50, 123)
        center = rep.scenarios.points[-1]
        assert rep.center_in_risk is False and not is_risk(region, center)
        classify = scenario_gen.classify_mask
        monkeypatch.setattr(scenario_gen, "classify_mask",
                            lambda reg, pts: classify(reg, pts) | np.all(pts == center, axis=1))
        with caplog.at_level(logging.WARNING, logger=scenario_gen.__name__):
            flagged = aggregation_sampling(region, region.dist, 50, 123)
        assert flagged.center_in_risk is True
        assert np.array_equal(flagged.scenarios.points, rep.scenarios.points)
        assert "landed in the risk region" in caplog.text

    def test_target_must_be_positive(self):
        region = make_region()
        with pytest.raises(ConfigError):
            aggregation_sampling(region, region.dist, 0, 1)

    def test_sampler_dimension_must_match(self):
        with pytest.raises(ConfigError):
            aggregation_sampling(make_region(d=2), make_region(d=3).dist, 5, 1)

    def test_effective_size_law(self):
        # mean N(n) over repetitions within 3 SE of n/(1-q), q by Monte Carlo
        region = make_region()
        q = 1.0 - classify_mask(region, region.dist.draw(
            np.random.default_rng(1), 10**5)).mean()
        runs = np.array([
            aggregation_sampling(region, region.dist, 40, child_seed(7, i)).effective_sample_size
            for i in range(120)
        ])
        target = 40 / (1.0 - q)
        se_mean = runs.std(ddof=1) / np.sqrt(runs.size)
        se_q = 40 / (1 - q) ** 2 * np.sqrt(q * (1 - q) / 10**5)
        assert abs(runs.mean() - target) < 3 * np.hypot(se_mean, se_q)


class _PlainSampler:
    """An empirical source seen only through d and draw, so every draw is
    classified by classify_mask rather than by its atom's verdict."""

    def __init__(self, source):
        self.d, self.draw = source.d, source.draw


def _assert_same_report(a, b):
    assert np.array_equal(a.scenarios.points, b.scenarios.points)
    assert np.array_equal(a.scenarios.probs, b.scenarios.probs)
    assert (a.n_risk, a.n_nonrisk, a.effective_sample_size, a.center_in_risk) == \
        (b.n_risk, b.n_nonrisk, b.effective_sample_size, b.center_in_risk)


class TestEmpiricalSource:
    """Draws from a scenario file take their atom's verdict."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_atom_verdicts_give_the_plain_report(self, shape, monkeypatch):
        region, plain_region = SHAPES[shape](), SHAPES[shape]()
        source = EmpiricalDistribution(skewed_scenarios(region.d, 3000, 5))
        plain = _PlainSampler(source)
        classified = []
        classify = risk_region.classify_mask
        monkeypatch.setattr(risk_region, "classify_mask",
                            lambda reg, pts: classified.append((reg, pts)) or classify(reg, pts))
        for seed in (3, 4):  # the second run reuses the first run's verdicts
            _assert_same_report(aggregation_sampling(region, source, 60, seed),
                                aggregation_sampling(plain_region, plain, 60, seed))
        assert (estimate_nonrisk_prob(region, 4000, 6, sampler=source)
                == estimate_nonrisk_prob(plain_region, 4000, 6, sampler=plain))
        # the region classified the whole file once, in file order, when it first met it
        ours = [pts for reg, pts in classified if reg is region]
        assert len(ours) == 1 and np.array_equal(ours[0], source.scenarios.points)

    def test_switching_scenario_sets_keeps_no_stale_verdict(self):
        region, plain_region = quota_region(0.95), quota_region(0.95)
        a = EmpiricalDistribution(skewed_scenarios(10, 3000, 5))
        b = EmpiricalDistribution(skewed_scenarios(10, 3000, 6))
        # atoms at the same index differ in verdict, so a stale verdict would show
        assert (classify_mask(plain_region, a.scenarios.points)
                != classify_mask(plain_region, b.scenarios.points)).any()
        for source, seed in ((a, 1), (b, 2), (a, 3)):
            _assert_same_report(aggregation_sampling(region, source, 60, seed),
                                aggregation_sampling(plain_region, _PlainSampler(source), 60, seed))
            assert (estimate_nonrisk_prob(region, 2000, seed, sampler=source)
                    == estimate_nonrisk_prob(plain_region, 2000, seed,
                                             sampler=_PlainSampler(source)))

    def test_matches_replayed_raw_stream(self):
        region = quota_region(0.95)
        source = EmpiricalDistribution(skewed_scenarios(10, 3000, 5))
        rep = aggregation_sampling(region, source, 60, 21)
        raw = raw_stream(source, 21, rep.effective_sample_size)
        mask = classify_mask(region, raw)
        assert int(mask.sum()) == rep.n_risk
        assert np.array_equal(rep.scenarios.points[:-1], raw[mask])
        assert rep.scenarios.points[-1] == pytest.approx(raw[~mask].mean(axis=0))


class TestAggregationReduction:
    def test_all_risk_identity(self):
        region = make_region(threshold=0.0)
        scen = ScenarioSet.equally_weighted(region.dist.draw(np.random.default_rng(0), 50))
        assert aggregation_reduction(region, scen) is scen

    def test_reduced_size_law(self):
        region = make_region(d=5)
        q = 1.0 - classify_mask(region, region.dist.draw(
            np.random.default_rng(2), 10**5)).mean()
        n = 500
        sizes = []
        for i in range(40):
            scen = ScenarioSet.equally_weighted(
                region.dist.draw(np.random.default_rng(1000 + i), n))
            sizes.append(aggregation_reduction(region, scen).n)
        expected = n * (1 - q) + 1
        sd = np.sqrt(n * q * (1 - q))
        assert abs(np.mean(sizes) - expected) < 3 * sd / np.sqrt(len(sizes))

    def test_reduction_idempotent(self):
        region = make_region(d=3)
        scen = ScenarioSet.equally_weighted(region.dist.draw(np.random.default_rng(3), 400))
        once = aggregation_reduction(region, scen)
        assert not is_risk(region, once.points[-1])  # aggregated point is non-risk
        twice = aggregation_reduction(region, once)
        assert twice.n == once.n
        assert np.allclose(twice.points, once.points)
        assert np.allclose(twice.probs, once.probs)


class TestEffectiveSampleSizeFormula:
    def test_values(self):
        assert expected_effective_sample_size(100, 0.0) == 100
        assert expected_effective_sample_size(100, 0.5) == pytest.approx(200.0)
        assert expected_effective_sample_size(100, 0.9) == pytest.approx(1000.0)

    def test_rejects_q_at_one(self):
        with pytest.raises(ConfigError):
            expected_effective_sample_size(100, 1.0)


class TestConsistency:
    def _violations(self, region, n_target, seed, n_portfolios=50):
        rep = aggregation_sampling(region, region.dist, n_target, seed)
        raw = ScenarioSet.equally_weighted(
            raw_stream(region.dist, seed, rep.effective_sample_size))
        rng = np.random.default_rng(seed + 1)
        beta = region.beta
        bad = 0
        checked = 0
        for _ in range(n_portfolios):
            x = rng.dirichlet(np.ones(region.d))
            losses = -(raw.points @ x)
            order = np.argsort(losses)
            idx = min(int(np.searchsorted(np.cumsum(raw.probs[order]), beta - 1e-12)),
                      losses.size - 1)
            quantile_point = raw.points[order[idx]]
            margin = region.projection_norm(quantile_point) - region.threshold
            if margin <= 1e-9:
                continue  # quantile atom not strictly inside the risk region
            checked += 1
            c_raw = discrete_cvar(raw, x, beta)
            c_agg = discrete_cvar(rep.scenarios, x, beta)
            if abs(c_agg - c_raw) > 1e-10 * max(1.0, abs(c_raw)):
                bad += 1
        assert checked > 25
        return bad

    def test_cvar_surfaces_agree_for_large_samples(self):
        region = make_region(d=3)
        small = self._violations(region, 1000, 31)
        large = self._violations(region, 10_000, 32)
        assert large <= small
        assert large == 0
