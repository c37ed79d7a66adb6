"""Cone construction, NNLS cone and polytope projection, and the conic-hull formula."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from oracles import (in_region, project_generators_oracle, project_polyhedral_nnls_oracle,
                     project_polyhedral_oracle)
from riskscen import cones
from riskscen.cones import (Cone, ConeProjector, FeasibleRegion, cone_member, conic_hull, nnls,
                            project_generators, project_polyhedral, project_polytope, transform)
from riskscen.distributions import fit_from_returns
from riskscen.errors import ConfigError, SolverError
from riskscen.synthetic import synthetic_returns
from shapes import SHAPES, SHAPES_D50, sector_pair_region


def orthant(d, form="both"):
    gens = np.eye(d) if form in ("both", "generators") else None
    facets = np.eye(d) if form in ("both", "facets") else None
    return Cone(d, gens, facets)


class TestFeasibleRegion:
    def test_requires_positive_capital(self):
        with pytest.raises(ConfigError):
            FeasibleRegion(2, 0.0)
        with pytest.raises(ConfigError):
            FeasibleRegion(2, -1.0)

    def test_rejects_empty_region(self):
        # upper bounds sum below the budget
        with pytest.raises(ConfigError):
            FeasibleRegion(2, 1.0, upper=[0.3, 0.3])

    def test_rejects_region_empty_by_a_hair(self):
        # the bounds sum 1e-8 short of the budget: empty, though only just
        with pytest.raises(ConfigError):
            FeasibleRegion(2, 1.0, upper=[0.5, 0.5 - 1e-8])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            FeasibleRegion(2, 1.0, lower=[0.5, 0.5], upper=[0.4, 1.0])

    def test_rejects_nonfinite_rows(self):
        with pytest.raises(ConfigError):
            FeasibleRegion(2, 1.0, A=[[np.inf, 0.0]], b=[1.0])

    def test_roundtrip_dict(self):
        r = FeasibleRegion(3, 1.0, A=[[1.0, 0, 0]], b=[0.5], upper=[0.5, 0.9, 1.0])
        r2 = FeasibleRegion.from_dict(r.to_dict())
        assert np.allclose(r2.A, r.A) and np.allclose(r2.upper, r.upper)


class TestConicHull:
    def test_orthant_when_unconstrained(self):
        cone = conic_hull(FeasibleRegion(2, 1.0))
        assert np.allclose(cone.facets, np.eye(2))
        assert cone.generators is not None and np.allclose(cone.generators, np.eye(2))

    def test_single_quota_facet(self):
        cone = conic_hull(FeasibleRegion(2, 1.0, A=[[1.0, 0.0]], b=[0.7]))
        assert np.allclose(cone.facets[0], [-0.3, 0.7])
        # boundary direction of the facet scales back into the region
        x = np.array([0.7, 0.3])
        scaled = x / x.sum()
        assert scaled[0] <= 0.7 + 1e-12

    def test_symmetric_quota_wedge(self):
        # quotas x1 <= 0.7 and x2 <= 0.7 leave the wedge between slopes 3/7 and 7/3
        region = FeasibleRegion(2, 1.0, A=[[1.0, 0.0], [0.0, 1.0]], b=[0.7, 0.7])
        cone = conic_hull(region)
        for slope, inside in [(3 / 7, True), (7 / 3, True), (0.3, False), (4.0, False)]:
            pt = np.array([1.0, slope])
            assert cone_member(cone, pt, tol=1e-9) == inside

    def test_upper_bounds_folded_in(self):
        direct = conic_hull(FeasibleRegion(2, 1.0, upper=[0.7, 1.0]))
        via_row = conic_hull(FeasibleRegion(2, 1.0, A=[[1.0, 0.0]], b=[0.7]))
        probe = np.random.default_rng(0).normal(size=(50, 2))
        for y in probe:
            assert cone_member(direct, y) == cone_member(via_row, y)

    def test_scaling_into_region(self):
        # forward implication of the hull formula, checked numerically
        rng = np.random.default_rng(3)
        region = FeasibleRegion(3, 2.0, A=[[1.0, 0, 0], [0.2, 0.3, 0.1]], b=[1.2, 0.5])
        cone = conic_hull(region)
        hits = 0
        for _ in range(300):
            x = rng.uniform(0, 1, 3)
            if cone_member(cone, x, tol=0) and x.sum() > 1e-9:
                scaled = region.capital / x.sum() * x
                assert in_region(region, scaled, tol=1e-9)
                hits += 1
        assert hits > 20
        # and region points always belong to the cone
        for _ in range(200):
            w = rng.dirichlet([1.0, 1.0, 1.0]) * region.capital
            if in_region(region, w, tol=0):
                assert cone_member(cone, w, tol=1e-9)


class TestProjection:
    def test_interior_point_fixed(self):
        assert project_generators(orthant(2), [1.0, 1.0]) == pytest.approx([1.0, 1.0])

    def test_orthant_clamp(self):
        assert project_generators(orthant(2), [-1.0, 2.0]) == pytest.approx([0.0, 2.0])
        assert project_polyhedral(orthant(2), [-1.0, 2.0]) == pytest.approx([0.0, 2.0])

    def test_single_ray_least_squares(self):
        cone = Cone(2, generators=[[1.0, 1.0]])
        assert project_generators(cone, [1.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_member_projects_to_itself(self):
        rng = np.random.default_rng(1)
        B = rng.normal(size=(4, 3))
        cone = Cone(3, facets=B)
        y = project_polyhedral(cone, rng.normal(size=3) * 2)
        assert project_polyhedral(cone, y) == pytest.approx(list(y), abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            project_generators(orthant(2), [np.nan, 0.0])

    def test_kkt_residuals_generator_path(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            G = rng.normal(size=(int(rng.integers(1, 9)), d))
            cone = Cone(d, generators=G)
            x = rng.normal(size=d) * 3
            p = project_generators(cone, x)
            assert abs((x - p) @ p) < 1e-8
            assert np.all(cone.generators @ (x - p) <= 1e-8)

    def test_polyhedral_matches_active_set_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            B = rng.normal(size=(int(rng.integers(1, 9)), d))
            cone = Cone(d, facets=B)
            pts = rng.normal(size=(40, d)) * 2
            mine = np.array([project_polyhedral(cone, y) for y in pts])
            assert np.abs(mine - project_polyhedral_oracle(B, pts)).max() < 1e-8

    def test_generators_match_subset_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            G = rng.normal(size=(int(rng.integers(1, 9)), d))
            cone = Cone(d, generators=G)
            pts = rng.normal(size=(40, d)) * 2
            mine = np.array([project_generators(cone, y) for y in pts])
            assert np.abs(mine - project_generators_oracle(cone.generators, pts)).max() < 1e-8


class TestNnls:
    def test_matches_scipy_nnls(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 25))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m) * 3
            lam = nnls(A, b)
            assert lam.min() >= 0.0
            ref = scipy_nnls(A, b)[0]
            assert np.linalg.norm(A @ lam - b) <= np.linalg.norm(A @ ref - b) + 1e-10

    def test_empty_column_set_and_zero_target(self):
        assert nnls(np.zeros((3, 0)), np.ones(3)).shape == (0,)
        assert nnls(np.zeros((3, 0)), np.ones((4, 3))).shape == (4, 0)
        assert np.array_equal(nnls(np.eye(3), np.zeros(3)), np.zeros(3))

    def test_stack_matches_scipy_row_by_row(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 25))
            A = rng.normal(size=(m, n))
            B = rng.normal(size=(int(rng.integers(1, 40)), m)) * 3
            lam = nnls(A, B)
            assert lam.shape == (B.shape[0], n) and lam.min() >= 0.0
            for b, row in zip(B, lam):
                ref = scipy_nnls(A, b)[0]
                assert np.linalg.norm(A @ row - b) <= np.linalg.norm(A @ ref - b) + 1e-10

    def test_any_failed_row_certificate_raises(self, monkeypatch):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(4, 6))
        B = np.vstack([np.zeros(4), rng.normal(size=4)])
        nnls(A, B)
        # with a zero tolerance only the zero right-hand side (lam = 0, w = 0) is certified
        monkeypatch.setattr(cones, "NNLS_CERT_TOL", 0.0)
        nnls(A, B[:1])
        with pytest.raises(SolverError, match="1 of 2 rows"):
            nnls(A, B)

    def test_rank_deficient_problems_certify_or_raise_solver_error(self):
        # singular values 1 ... 1e-6 on rank r, then zeros: some passive systems
        # are exactly singular, which must surface as SolverError
        rng = np.random.default_rng(0)
        for _ in range(300):
            m, n = int(rng.integers(3, 13)), int(rng.integers(2, 30))
            r = int(rng.integers(1, min(m, n) + 1))
            U = np.linalg.qr(rng.standard_normal((m, m)))[0]
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            sv = np.zeros((m, n))
            sv[np.arange(r), np.arange(r)] = np.logspace(0, -6, r)
            A, b = U @ sv @ V.T, rng.standard_normal(m)
            try:
                lam = nnls(A, b)
            except SolverError:
                continue
            w = A.T @ (b - A @ lam)
            scale = np.linalg.norm(b) * np.linalg.norm(A, axis=0).max()
            assert lam.min() >= 0.0 and w.max() <= cones.NNLS_CERT_TOL * scale
            assert abs(lam @ w) <= cones.NNLS_CERT_TOL * (b @ b)


class TestBatchedProjector:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_stack_matches_oracle_and_single_points(self, shape):
        region = SHAPES[shape]()
        W = -region.spherical_coords(region.dist.draw(np.random.default_rng(3), 1000))
        projector = ConeProjector(region.image_cone)
        batched = projector.project(W)
        assert batched.shape == W.shape
        oracle = project_polyhedral_nnls_oracle(region.image_cone.facets, W)
        assert np.abs(batched - oracle).max() < 1e-8
        single = np.array([projector.project(w) for w in W])
        assert np.abs(batched - single).max() < 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", sorted(SHAPES_D50))
    def test_stack_matches_oracle_at_d50(self, shape):
        """The oracle comparison above at the paper's d = 50, 100 facets.
        Budget 60 s; about 2 s on a 2-core host."""
        t0 = time.perf_counter()
        region = SHAPES_D50[shape]()
        W = -region.spherical_coords(region.dist.draw(np.random.default_rng(3), 1000))
        batched = ConeProjector(region.image_cone).project(W)
        oracle = project_polyhedral_nnls_oracle(region.image_cone.facets, W)
        assert np.abs(batched - oracle).max() < 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"overran its 60 s budget: {elapsed:.1f}s"

    def test_nonfinite_row_in_stack_raises(self):
        W = np.ones((5, 3))
        W[2, 1] = np.nan
        with pytest.raises(ConfigError):
            ConeProjector(orthant(3)).project(W)


class TestProjectPolytope:
    def test_kkt_on_random_polytopes(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            G = rng.normal(size=(int(rng.integers(d + 1, 3 * d + 2)), d))
            h = G @ rng.normal(size=d) + rng.uniform(0.0, 1.0, size=G.shape[0])
            y = rng.normal(size=d) * 4
            self._assert_kkt(y, G, h, project_polytope(y, G, h))

    # The markets of TestSolveExact's dependent-passive-columns case and their
    # optimal portfolios under a 0.3 quota. Each optimum is a vertex; with a
    # return floor through it, the budget pair, d - 1 bounds and the floor are
    # active at once, more rows than the d + 1 of the least-distance program.
    @pytest.mark.parametrize("d,seed,vertex", [
        (4, 1, [0.3, 0.1, 0.3, 0.3]),
        (6, 1, [0.3, 0.3, 0.1, 0.3, 0.0, 0.0]),
        (8, 2, [0.1, 0.0, 0.0, 0.0, 0.3, 0.3, 0.3, 0.0]),
        (10, 1, [0.0, 0.3, 0.1, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.3])])
    def test_kkt_with_dependent_passive_columns(self, d, seed, vertex):
        """Minimum-risk portfolios at return floors around a degenerate vertex.

        In u = P x coordinates the rows are G P^-1 (the budget as an opposing
        row pair, the box) plus the floor mu'x >= r. For some r within a
        relative 2e-6 of the vertex's return the NNLS passive set takes both
        budget columns, which are exact negatives of each other; without the
        ridge in _passive_solve their Gram system is singular.
        """
        _, returns = synthetic_returns(d, 240, seed, family="student-t")
        dist = fit_from_returns(returns, "student-t", nu=4.0)
        ones = np.ones(d)
        G = np.vstack([ones, -ones, -np.eye(d), np.eye(d), -dist.mu])
        Gu = np.linalg.solve(dist.factor.T, G.T).T
        r0 = float(dist.mu @ np.array(vertex))
        for k in range(-20, 21):
            h = np.concatenate([[1.0, -1.0], np.zeros(d), np.full(d, 0.3),
                                [-r0 * (1.0 + k * 1e-7)]])
            self._assert_kkt(np.zeros(d), Gu, h, project_polytope(np.zeros(d), Gu, h))

    @staticmethod
    def _assert_kkt(y, G, h, x):
        assert np.all(G @ x <= h + 1e-9)
        active = G @ x >= h - 1e-8
        if not active.any():
            assert np.allclose(x, y)
            return
        # y - x lies in the cone of the active rows (the normal cone at x)
        res = scipy_nnls(G[active].T, y - x)[1]
        assert res <= 1e-8 * (1.0 + np.linalg.norm(y - x))

    def test_empty_polytope_raises(self):
        G = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(SolverError):
            project_polytope(np.zeros(2), G, np.array([-1.0, -1.0]))


class TestOppositeColumns:
    @pytest.mark.parametrize("d", [4, 6, 10])
    def test_polar_generator_of_an_equality_pair(self, d):
        """A sector equality written as two opposite rows gives K' two exactly
        opposite facets, so the polar-route NNLS of classify_mask has two
        exactly opposite columns. Points at and near their generator g
        project with certificates (nnls raises SolverError otherwise), and
        agree with scipy's NNLS."""
        region = sector_pair_region(d)
        projector = region._projector
        G = projector.G
        pair = np.flatnonzero((G @ G.T < -1.0 + 1e-12).any(axis=1))
        assert projector.via_polar and pair.size == 2
        g = G[pair[0]]
        rng = np.random.default_rng(d)
        for s in (1.0, 3.0):
            for eps in (0.0, 1e-12, 1e-9, 1e-6):
                V = s * g + eps * rng.normal(size=(64, d))
                P = projector.project(V)
                ref = project_polyhedral_nnls_oracle(region.image_cone.facets, V)
                assert np.abs(P - ref).max() <= 1e-9 * (1.0 + s)
                assert np.abs(projector.project(V[0]) - ref[0]).max() <= 1e-9 * (1.0 + s)


class TestProjectionProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_nonexpansive(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        cone = Cone(d, facets=rng.normal(size=(int(rng.integers(1, 7)), d)))
        x = rng.normal(size=d) * 2
        y = rng.normal(size=d) * 2
        projector = ConeProjector(cone)
        px, py = projector.project(x), projector.project(y)
        assert np.linalg.norm(projector.project(px) - px) < 1e-10
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_moreau_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        B = rng.normal(size=(int(rng.integers(1, 7)), d))
        cone = Cone(d, facets=B)
        polar = Cone(d, generators=-B)
        x = rng.normal(size=d) * 3
        p = project_polyhedral(cone, x)
        q = project_generators(polar, x)
        assert np.linalg.norm(p + q - x) < 1e-8
        assert abs(p @ q) < 1e-8

    @given(st.integers(0, 10_000), st.floats(0.1, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_homogeneity(self, seed, lam):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        cone = Cone(d, generators=rng.normal(size=(int(rng.integers(1, 7)), d)))
        x = rng.normal(size=d)
        projector = ConeProjector(cone)
        assert np.allclose(projector.project(lam * x), lam * projector.project(x),
                           atol=1e-8 * (1 + lam))


class TestConeBasics:
    def test_membership_examples(self):
        cone = orthant(3)
        assert cone_member(cone, np.zeros(3))
        assert cone_member(cone, [1.0, 0.0, 0.0])
        assert not cone_member(cone, [-1.0, -1.0, -1.0])
        wedge = Cone(2, generators=[[1.0, 0.0], [1.0, 1.0]])  # no facets: the projection residual decides
        assert cone_member(wedge, [2.0, 1.0])
        assert not cone_member(wedge, [0.0, 1.0])

    def test_needs_some_form(self):
        with pytest.raises(ConfigError):
            Cone(2)

    def test_zero_and_duplicate_generators_dropped(self):
        cone = Cone(2, generators=[[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        assert cone.generators.shape == (2, 2)
        assert np.allclose(np.linalg.norm(cone.generators, axis=1), 1.0)

    def test_forms_agree_on_membership(self):
        rng = np.random.default_rng(4)
        cone = orthant(3)
        for y in rng.normal(size=(100, 3)):
            by_facet = bool(np.min(cone.facets @ y) >= -1e-9)
            by_gen = np.linalg.norm(y - project_generators(cone, y)) <= 1e-9
            assert by_facet == by_gen

    def test_json_roundtrip(self):
        cone = Cone(2, generators=[[1.0, 0.5], [0.0, 1.0]], facets=[[1.0, 0.0]])
        doc = json.loads(cone.to_json())
        assert set(doc) == {"d", "generators", "facets"}
        back = Cone.from_json(cone.to_json())
        assert np.allclose(back.generators, cone.generators)
        assert np.allclose(back.facets, cone.facets)

    def test_transform_maps_both_forms(self):
        P = np.array([[2.0, 0.5], [0.0, 1.0]])
        cone = orthant(2)
        img = transform(cone, P)
        rng = np.random.default_rng(9)
        for y in rng.normal(size=(100, 2)):
            # y in PK  <=>  P^{-1} y in K
            back = np.linalg.solve(P, y)
            assert cone_member(Cone(2, facets=img.facets), y, 1e-9) == bool(np.min(back) >= -1e-9)
