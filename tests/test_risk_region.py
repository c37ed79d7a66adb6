"""Risk-region membership against the directional oracle, plus aggregation."""

import time

import numpy as np
import pytest

from oracles import cone_direction_grid, directional_risk_scores, project_polyhedral_nnls_oracle
from riskscen import risk_region
from riskscen.cones import Cone, ConeProjector, FeasibleRegion, conic_hull, project_polyhedral
from riskscen.distributions import (EllipticalDistribution, EmpiricalDistribution, ScenarioSet,
                                    spherical_quantile)
from riskscen.errors import ConfigError
from riskscen.risk_region import (RiskRegion, aggregate, classify_batch, classify_mask,
                                  estimate_nonrisk_prob, is_risk)
from shapes import SHAPES, SHAPES_D50, ghost_box_region, quota_region, sector_pair_region


def standard_region(beta=0.95, d=2, family="normal", nu=None):
    dist = EllipticalDistribution(family, np.zeros(d), np.eye(d), nu)
    return RiskRegion(dist, conic_hull(FeasibleRegion(d, 1.0)), beta)


class TestConstruction:
    def test_threshold_recomputed(self):
        region = standard_region()
        assert region.threshold == spherical_quantile(region.dist.family, region.beta,
                                                      region.dist.nu)
        assert region.threshold == pytest.approx(1.6448536269514726, abs=1e-9)

    def test_beta_must_be_tail_level(self):
        dist = EllipticalDistribution("normal", np.zeros(2), np.eye(2))
        cone = conic_hull(FeasibleRegion(2, 1.0))
        for bad in (0.3, 0.5, 1.0):
            with pytest.raises(ConfigError):
                RiskRegion(dist, cone, bad)


class TestMembershipExamples:
    def test_deep_loss_is_risk(self):
        assert is_risk(standard_region(), [-3.0, 0.0])

    def test_all_positive_returns_not_risk(self):
        assert not is_risk(standard_region(), [3.0, 3.0])

    def test_boundary_sweep_just_outside(self):
        region = standard_region()
        q = region.threshold
        for theta in np.linspace(0, np.pi / 2, 25):
            eps = 1e-3
            y = np.array([-(q * np.cos(theta) + eps), -(q * np.sin(theta) + eps)])
            assert is_risk(region, y)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            is_risk(standard_region(), [np.nan, 0.0])

    @pytest.mark.parametrize("call", [
        lambda region, scen: estimate_nonrisk_prob(region, 100, 1,
                                                   sampler=EmpiricalDistribution(scen)),
        lambda region, scen: estimate_nonrisk_prob(region, 100, 1, sampler=EllipticalDistribution(
            "normal", np.zeros(4), np.eye(4))),
        lambda region, scen: classify_batch(region, scen),
        lambda region, scen: classify_mask(region, scen.points),
        lambda region, scen: aggregate(region, scen),
        lambda region, scen: is_risk(region, scen.points[0]),
    ], ids=["estimate-empirical", "estimate-elliptical", "classify_batch", "classify_mask",
            "aggregate", "is_risk"])
    def test_wrong_width_rejected(self, call):
        scen = ScenarioSet.equally_weighted(np.random.default_rng(0).normal(size=(20, 4)))
        with pytest.raises(ConfigError, match="4 coordinates, the region has 3"):
            call(standard_region(d=3), scen)


class TestGhostBoxProjection:
    def test_d12_ghost_box_matches_nnls_oracle(self):
        region = ghost_box_region(0.95)
        Y = region.dist.draw(np.random.default_rng(0), 3000)
        assert region.image_cone.facets.shape == (24, 12)
        W = -region.spherical_coords(Y)
        mine = np.array([project_polyhedral(region.image_cone, w) for w in W])
        oracle = project_polyhedral_nnls_oracle(region.image_cone.facets, W)
        assert np.abs(mine - oracle).max() < 1e-8
        for beta in (0.95, 0.99):
            region = ghost_box_region(beta)
            expected = np.linalg.norm(oracle, axis=1) >= region.threshold - 1e-9
            assert np.array_equal(classify_mask(region, Y), expected)


class TestDominanceArchive:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_warm_archive_keeps_the_exact_mask(self, shape):
        Y = SHAPES[shape]().dist.draw(np.random.default_rng(1), 3000)
        exact = classify_mask(SHAPES[shape](), Y, use_shortcuts=False)
        assert 0 < exact.sum() < exact.size
        assert np.array_equal(classify_mask(SHAPES[shape](), Y), exact)
        warm = SHAPES[shape]()
        chunked = np.concatenate([classify_mask(warm, Y[s : s + 512])
                                  for s in range(0, Y.shape[0], 512)])
        assert np.array_equal(chunked, exact)
        assert np.array_equal(classify_mask(warm, Y), exact)

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", sorted(SHAPES_D50))
    def test_shortcuts_keep_the_exact_mask_at_d50(self, shape):
        """The cold-region check above at the paper's d = 50.
        Budget 60 s; about 6 s on a 2-core host."""
        t0 = time.perf_counter()
        Y = SHAPES_D50[shape]().dist.draw(np.random.default_rng(1), 3000)
        exact = classify_mask(SHAPES_D50[shape](), Y, use_shortcuts=False)
        assert 0 < exact.sum() < exact.size
        assert np.array_equal(classify_mask(SHAPES_D50[shape](), Y), exact)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"overran its 60 s budget: {elapsed:.1f}s"

    def test_full_archive_stops_growing_and_stays_exact(self, monkeypatch):
        monkeypatch.setattr(risk_region, "_ARCHIVE_CAP", 40)
        region = quota_region(0.95)
        Y = region.dist.draw(np.random.default_rng(3), 3000)
        exact = classify_mask(quota_region(0.95), Y, use_shortcuts=False)
        assert np.array_equal(classify_mask(region, Y), exact)
        archive = region._archive
        assert archive.kray.shape[0] == archive.polar.shape[0] == archive.nonrisk.shape[0] == 40
        assert np.array_equal(classify_mask(region, Y), exact)

    def test_archive_persists_across_calls(self):
        region = ghost_box_region(0.99)
        Y = region.dist.draw(np.random.default_rng(2), 1000)
        first = classify_mask(region, Y)
        calls = []
        project = region._projector.project
        region._projector.project = lambda x: calls.append(len(x)) or project(x)
        # every point left to project was archived by the first call and dominates itself
        assert np.array_equal(classify_mask(region, Y), first)
        assert calls == []


class TestVertexRouteVerdicts:
    @pytest.mark.parametrize("shape", sorted(SHAPES) + [
        pytest.param(name, marks=pytest.mark.slow) for name in sorted(SHAPES_D50)])
    def test_unscreened_mask_equals_the_polar_route(self, shape):
        """Quota caps and ghost boxes project through the vertices of their
        base; their verdicts equal the polar route's. Budget 60 s at d = 50;
        about 9 s on a 2-core host, nearly all of it the polar route."""
        t0 = time.perf_counter()
        region = {**SHAPES, **SHAPES_D50}[shape]()
        assert region._projector.base is not None
        Y = region.dist.draw(np.random.default_rng(6), 3000)
        mask = classify_mask(region, Y, use_shortcuts=False)
        object.__setattr__(region, "_projector", ConeProjector(region.image_cone, prefer="facets"))
        assert 0 < mask.sum() < mask.size
        assert np.array_equal(mask, classify_mask(region, Y, use_shortcuts=False))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"overran its 60 s budget: {elapsed:.1f}s"

    def test_archive_keeps_only_polar_rays_the_oracle_certifies(self):
        region = ghost_box_region(0.99)
        archive = region._archive
        start = archive.polar.shape[0]
        x = np.full(region.d, 1.0 / region.d)  # a feasible portfolio, so P x lies in K'
        inside = region.dist.factor @ x
        polar = -region.image_cone.facets[0]  # a generator of K'o
        V = np.vstack([inside, polar, polar + 1e-3 * inside])
        archive.add(np.zeros_like(V), V, np.zeros_like(V), np.zeros(3, dtype=bool), False)
        assert archive.polar.shape[0] == start + 1
        assert np.allclose(archive.polar[-1], polar / np.linalg.norm(polar))


class TestRayBounds:
    @pytest.mark.parametrize("shape", sorted(SHAPES) + [
        pytest.param(name, marks=pytest.mark.slow) for name in sorted(SHAPES_D50)])
    def test_archived_rays_bound_fresh_projections(self, shape):
        """Rays archived by one call bound the projection norms of new draws."""
        region = {**SHAPES, **SHAPES_D50}[shape]()
        rng = np.random.default_rng(4)
        classify_mask(region, region.dist.draw(rng, 3000))
        facets = region.image_cone.facets
        kray, polar = region._archive.kray, region._archive.polar
        assert kray.shape[0] > 0 and polar.shape[0] > facets.shape[0]
        V = -region.spherical_coords(region.dist.draw(rng, 2000))
        pnorm = np.linalg.norm(project_polyhedral_nnls_oracle(facets, V), axis=1)
        assert np.all((V @ kray.T).max(axis=1) <= pnorm + 1e-9)
        g = np.maximum(0.0, (V @ polar.T).max(axis=1))
        upper = np.sqrt(np.maximum(np.einsum("ij,ij->i", V, V) - g * g, 0.0))
        assert np.all(upper >= pnorm - 1e-9)
        assert (kray @ facets.T).min() >= -1e-12

    @pytest.mark.parametrize("form", ["facets", "generators"])
    def test_ray_screen_alone_keeps_the_exact_mask(self, form):
        """Random cones outside the orthant: no dominance, only the norm,
        membership and ray screens decide points before projection."""
        rng = np.random.default_rng(11 if form == "facets" else 12)
        projected = screened = 0
        for _ in range(6):
            d = int(rng.integers(2, 9))
            center = rng.normal(size=d)
            k = int(rng.integers(d, 2 * d + 1))
            rows = center + 0.8 * np.linalg.norm(center) * rng.normal(size=(k, d))
            cone = Cone(d, **{form: rows})
            assert not risk_region._cone_in_orthant(cone)
            P = np.eye(d) + 0.3 * np.triu(rng.normal(size=(d, d)), 1)
            dist = EllipticalDistribution("student-t", 0.01 * rng.normal(size=d), P, 5.0)
            region = RiskRegion(dist, cone, 0.9)
            project = region._projector.project
            calls = []
            region._projector.project = lambda x: calls.append(len(x)) or project(x)
            for _ in range(3):
                Y = dist.draw(rng, 600)
                mask = classify_mask(region, Y)
                projected += sum(calls)
                screened += Y.shape[0]
                assert np.array_equal(mask, classify_mask(region, Y, use_shortcuts=False))
                calls.clear()
        assert projected < screened / 4


class TestOppositeFacetPair:
    @pytest.mark.parametrize("d", [4, 6, 10])
    def test_shortcuts_keep_the_exact_mask(self, d):
        """K' has two exactly opposite facets (a sector equality as a row
        pair); the shortcut tiers leave the projected mask unchanged."""
        region = sector_pair_region(d)
        Y = region.dist.draw(np.random.default_rng(d), 5000)
        assert np.array_equal(classify_mask(region, Y),
                              classify_mask(region, Y, use_shortcuts=False))


class TestOracleAgreement:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family,nu", [("normal", None), ("student-t", 4.0)])
    def test_membership_matches_directional_oracle(self, d, family, nu):
        rng = np.random.default_rng(42 + d)
        mu = rng.normal(size=d) * 0.01
        P = np.eye(d) + 0.2 * np.triu(rng.normal(size=(d, d)), 1)
        dist = EllipticalDistribution(family, mu, P, nu)
        region_fr = FeasibleRegion(d, 1.0, upper=np.full(d, 0.8))
        region = RiskRegion(dist, conic_hull(region_fr), 0.95)
        dirs = cone_direction_grid(d, region.cone.facets, step=2e-3 if d == 2 else 1e-2)
        pts = dist.draw(rng, 400)
        scores = directional_risk_scores(pts, mu, P, dirs)
        ours = classify_mask(region, pts)
        margin = 1e-3 * region.threshold
        decided = np.abs(scores - region.threshold) > margin
        assert decided.sum() > 300
        assert np.array_equal(ours[decided], scores[decided] >= region.threshold)


class TestClassifyBatch:
    def test_partition_matches_pointwise(self):
        region = standard_region()
        pts = region.dist.draw(np.random.default_rng(1), 300)
        risk_idx, nonrisk_idx = classify_batch(region, ScenarioSet.equally_weighted(pts))
        for i in risk_idx:
            assert is_risk(region, pts[i])
        for i in nonrisk_idx:
            assert not is_risk(region, pts[i])

    def test_shortcut_equals_full_projection(self):
        dist = EllipticalDistribution("normal", np.zeros(5), np.eye(5))
        region = RiskRegion(dist, conic_hull(FeasibleRegion(5, 1.0)), 0.95)
        pts = dist.draw(np.random.default_rng(2), 10_000)
        fast = classify_mask(region, pts, use_shortcuts=True)
        slow = classify_mask(region, pts, use_shortcuts=False)
        assert np.array_equal(fast, slow)

    def test_dominated_point_classified_without_projection(self):
        region = standard_region()
        y = np.array([-3.0, -0.5])
        assert is_risk(region, y)
        batch = np.vstack([y, y - 1.0])
        mask = classify_mask(region, batch)
        assert mask.all()

    def test_empty_set(self):
        region = standard_region()
        risk_idx, nonrisk_idx = classify_batch(
            region, ScenarioSet(np.zeros((1, 2)), np.array([1.0])))
        # singleton at origin is never a tail outcome
        assert risk_idx.size == 0 and nonrisk_idx.size == 1
        assert classify_mask(region, np.zeros((0, 2))).size == 0


class TestAggregate:
    def test_all_risk_is_identity(self):
        region = standard_region()
        pts = np.array([[-3.0, 0.0], [0.0, -3.0], [-4.0, -4.0]])
        scen = ScenarioSet.equally_weighted(pts)
        assert aggregate(region, scen) is scen

    def test_two_nonrisk_points_collapse_to_mean(self):
        region = standard_region()
        scen = ScenarioSet.equally_weighted(np.array([[1.0, 1.0], [3.0, 3.0]]))
        out = aggregate(region, scen)
        assert out.n == 1
        assert out.points[0] == pytest.approx([2.0, 2.0])
        assert out.probs[0] == pytest.approx(1.0)

    def test_weighted_mean_preserved(self):
        region = standard_region()
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(500, 2)) * 2
        probs = rng.dirichlet(np.ones(500))
        scen = ScenarioSet(pts, probs)
        out = aggregate(region, scen)
        assert out.mean() == pytest.approx(scen.mean(), abs=1e-12)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_risk_scenarios_unchanged(self):
        region = standard_region()
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 2)) * 2
        scen = ScenarioSet.equally_weighted(pts)
        mask = classify_mask(region, pts)
        out = aggregate(region, scen)
        assert np.array_equal(out.points[:-1], pts[mask])


class TestMonotonicity:
    def test_risk_set_shrinks_with_beta(self):
        r95 = standard_region(0.95)
        r99 = standard_region(0.99)
        pts = r95.dist.draw(np.random.default_rng(5), 2000)
        m95 = classify_mask(r95, pts)
        m99 = classify_mask(r99, pts)
        assert np.all(m95 | ~m99)  # risk(0.99) subset of risk(0.95)

    def test_quota_rows_never_create_risk(self):
        dist = EllipticalDistribution("normal", np.zeros(3), np.eye(3))
        wide = RiskRegion(dist, conic_hull(FeasibleRegion(3, 1.0)), 0.95)
        narrow = RiskRegion(dist, conic_hull(
            FeasibleRegion(3, 1.0, upper=np.full(3, 0.5))), 0.95)
        pts = dist.draw(np.random.default_rng(6), 2000)
        wide_mask = classify_mask(wide, pts)
        narrow_mask = classify_mask(narrow, pts)
        assert np.all(wide_mask | ~narrow_mask)  # narrow risk is a subset


class TestDownwardDistortion:
    def _empirical_tail(self, pts, probs, x, beta):
        losses = -(pts @ x)
        order = np.argsort(losses)
        cum = np.cumsum(probs[order])
        idx = min(int(np.searchsorted(cum, beta - 1e-12)), losses.size - 1)
        var = losses[order][idx]
        gt = losses > var
        p_le = 1.0 - probs[gt].sum()
        cvar = (probs[gt] @ losses[gt] + var * (p_le - beta)) / (1.0 - beta)
        return var, cvar

    @pytest.mark.parametrize("inflate,expect_equal", [(1.1, False), (1.0, True)])
    def test_undersized_region_only_lowers_tail_measures(self, inflate, expect_equal):
        beta = 0.9
        dist = EllipticalDistribution("normal", np.zeros(2), np.eye(2))
        cone = conic_hull(FeasibleRegion(2, 1.0))
        exact = RiskRegion(dist, cone, beta)
        region = RiskRegion(dist, cone, beta, threshold=exact.threshold * inflate)
        rng = np.random.default_rng(7)
        pts = dist.draw(rng, 60_000)
        scen = ScenarioSet.equally_weighted(pts)
        agg = aggregate(region, scen)
        for _ in range(10):
            x = rng.dirichlet([1.0, 1.0])
            v0, c0 = self._empirical_tail(scen.points, scen.probs, x, beta)
            v1, c1 = self._empirical_tail(agg.points, agg.probs, x, beta)
            # 3 standard errors of the empirical tail mean
            se = 3 * np.std(-(pts @ x)) / np.sqrt((1 - beta) * pts.shape[0])
            assert v1 <= v0 + se
            assert c1 <= c0 + se
            if expect_equal:
                assert c1 == pytest.approx(c0, abs=se)
                assert v1 == pytest.approx(v0, abs=se)


class TestNonriskProbability:
    def test_estimate_in_unit_interval_and_monotone_in_beta(self):
        p95 = estimate_nonrisk_prob(standard_region(0.95), 4000, 11)
        p99 = estimate_nonrisk_prob(standard_region(0.99), 4000, 11)
        assert 0.0 <= p95 <= p99 <= 1.0

    def test_sampler_override(self):
        region = standard_region()
        shifted = EllipticalDistribution("normal", np.full(2, 5.0), np.eye(2))
        p = estimate_nonrisk_prob(region, 2000, 3, sampler=shifted)
        assert p > 0.95  # far-positive returns are never tail losses
