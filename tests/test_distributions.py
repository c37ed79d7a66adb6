"""Tail functions against quadrature oracles, samplers, fitting, and IO."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import cvar_oracle, quantile_oracle
from riskscen import saa, synthetic
from riskscen.distributions import (EllipticalDistribution, EmpiricalDistribution,
                                    ScenarioSet, betainc_reg, fit_from_returns,
                                    load_scenarios, normal_cdf, normal_pdf, normal_quantile,
                                    portfolio_loss_stats, read_csv, sample, save_scenarios,
                                    spherical_cvar, spherical_quantile, t_cdf, t_pdf, t_quantile)
from riskscen.errors import ConfigError

# Frozen from the quadrature/bisection oracles in oracles.py.
ORACLE_TAILS = {
    ("normal", None, 0.9): (1.2815515655445928, 1.7549833193248856),
    ("normal", None, 0.95): (1.6448536269516398, 2.0627128075068573),
    ("normal", None, 0.99): (2.3263478740408345, 2.6652142203455123),
    ("student-t", 4.0, 0.9): (1.5332062740589438, 2.499340298301148),
    ("student-t", 4.0, 0.95): (2.13184678632663, 3.2028704020949212),
    ("student-t", 4.0, 0.99): (3.7469473879790858, 5.22058419449258),
}


class TestSphericalTails:
    @pytest.mark.parametrize("key,expected", sorted(ORACLE_TAILS.items(), key=str))
    def test_matches_frozen_oracle_values(self, key, expected):
        family, nu, beta = key
        q_exp, c_exp = expected
        assert spherical_quantile(family, beta, nu) == pytest.approx(q_exp, abs=1e-6)
        assert spherical_cvar(family, beta, nu) == pytest.approx(c_exp, abs=1e-6)

    def test_oracle_values_are_reproducible(self):
        # guard against silent drift in the frozen table
        q, c = ORACLE_TAILS[("student-t", 4.0, 0.95)]
        assert quantile_oracle("student-t", 0.95, 4.0) == pytest.approx(q, abs=1e-9)
        assert cvar_oracle("student-t", 0.95, 4.0) == pytest.approx(c, abs=1e-7)

    def test_normal_median_is_zero(self):
        assert spherical_quantile("normal", 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_normal_quantile_high_accuracy(self):
        from scipy import stats
        grid = np.linspace(1e-6, 1 - 1e-6, 1001)
        errs = [abs(normal_quantile(p) - stats.norm.ppf(p)) for p in grid]
        assert max(errs) < 1e-9

    @pytest.mark.parametrize("nu", [None, 2.1, 3.0, 4.0, 10.0, 100.0])
    def test_quantile_bracket_is_a_certificate(self, nu):
        """|x| and the double below it bracket the tail mass min(p, 1 - p), and
        scipy agrees to 1e-12 from p = 1e-12 to 1 - 1e-12."""
        from scipy import stats
        if nu is None:
            quantile, cdf, ppf = normal_quantile, normal_cdf, stats.norm.ppf
            density_at_0 = normal_pdf(0.0)
        else:
            quantile = lambda p: t_quantile(p, nu)  # noqa: E731
            cdf = lambda x: t_cdf(x, nu)  # noqa: E731
            ppf = lambda p: stats.t.ppf(p, nu)  # noqa: E731
            density_at_0 = t_pdf(0.0, nu)
        tails = np.logspace(-12, np.log10(0.25), 40)
        grid = np.concatenate([tails, np.linspace(0.05, 0.95, 18), 1.0 - tails])  # 0.5 excluded
        for p in map(float, grid):
            x = quantile(p)
            m = min(p, 1.0 - p)
            assert cdf(-abs(x)) <= m < cdf(-np.nextafter(abs(x), 0.0)), p
            assert abs(x - ppf(p)) <= 1e-12 * max(1.0, abs(x)), p
        assert quantile(0.5) == 0.0
        # within 1e-9 of the median scipy's t(4) ppf is off by 1e-8; the density
        # at 0 gives the quantile there to O(x^3)
        for p in (0.5 - 1e-9, 0.5 + 1e-9):
            assert quantile(p) == pytest.approx((p - 0.5) / density_at_0, rel=1e-6)

    @pytest.mark.parametrize("a, b, x", [(50.0, 0.5, 0.97), (500.0, 0.5, 0.999),
                                         (0.5, 500.0, 0.001), (500.0, 2.0, 0.995)])
    def test_betainc_matches_scipy_at_large_a(self, a, b, x):
        """From max(a, b) = 10 the prefactor's log-beta comes from Stirling's
        series; lgamma(a + b) - lgamma(a) - lgamma(b) lost 2.0e-14 and 1.6e-13
        relative at the first two points."""
        from scipy import special
        assert betainc_reg(a, b, x) == pytest.approx(special.betainc(a, b, x), rel=1e-14, abs=0)

    def test_cvar_near_zero_beta_is_mean(self):
        assert spherical_cvar("normal", 1e-6) == pytest.approx(0.0, abs=1e-4)

    def test_cvar_dominates_quantile_on_grid(self):
        for beta in np.linspace(0.01, 0.99, 99):
            assert spherical_cvar("normal", beta) >= spherical_quantile("normal", beta)
            assert spherical_cvar("student-t", beta, 4.0) >= spherical_quantile("student-t", beta, 4.0)

    def test_cvar_nondecreasing_in_beta(self):
        grid = np.linspace(0.01, 0.99, 99)
        for family, nu in [("normal", None), ("student-t", 4.0)]:
            vals = [spherical_cvar(family, b, nu) for b in grid]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_t_tail_heavier_than_normal(self):
        for beta in [0.9, 0.95, 0.99]:
            assert spherical_cvar("student-t", beta, 4.0) > spherical_cvar("normal", beta)

    def test_rejects_bad_beta(self):
        with pytest.raises(ConfigError):
            spherical_quantile("normal", 0.0)
        with pytest.raises(ConfigError):
            spherical_cvar("normal", 1.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ConfigError):
            spherical_quantile("student-t", 0.9, 2.0)


class TestEllipticalDistribution:
    def test_rejects_singular_factor(self):
        with pytest.raises(ConfigError):
            EllipticalDistribution("normal", np.zeros(2), [[1.0, 1.0], [1.0, 1.0]])

    def test_normal_sample_mean_within_lln_envelope(self):
        n = 10**5
        s = sample(EllipticalDistribution("normal", np.zeros(3), np.eye(3)), n, 123)
        assert np.abs(s.points.mean(axis=0)).max() < 4 / np.sqrt(n)

    def test_student_t_sample_covariance(self):
        P = np.array([[1.0, 0.4], [0.0, 0.8]])
        dist = EllipticalDistribution("student-t", np.zeros(2), P, 4.0)
        s = sample(dist, 10**5, 77)
        target = dist.covariance()
        emp = np.cov(s.points, rowvar=False)
        assert np.abs(emp - target).max() < 0.1 * np.abs(target).max()

    def test_fixed_seed_is_deterministic(self):
        dist = EllipticalDistribution("student-t", np.zeros(2), np.eye(2), 4.0)
        a, b = sample(dist, 1000, 5), sample(dist, 1000, 5)
        assert np.array_equal(a.points, b.points)

    def test_sampler_cvar_matches_closed_form(self):
        dist = EllipticalDistribution("normal", np.array([0.01, 0.02]),
                                      np.array([[0.05, 0.01], [0.0, 0.04]]))
        x = np.array([1.0, 0.0])
        _, cvar, _ = portfolio_loss_stats(dist, x, 0.95)
        s = sample(dist, 2 * 10**5, 99)
        losses = np.sort(-(s.points @ x))
        tail = losses[int(np.ceil(0.95 * losses.size)) :]
        assert tail.mean() == pytest.approx(cvar, rel=0.02)


class TestPortfolioLossStats:
    def test_single_asset_standard_normal(self):
        dist = EllipticalDistribution("normal", np.zeros(2), np.eye(2))
        var, cvar, ret = portfolio_loss_stats(dist, [1.0, 0.0], 0.95)
        assert var == pytest.approx(1.644854, abs=1e-6)
        assert cvar == pytest.approx(2.062713, abs=1e-6)
        assert ret == 0.0

    def test_positive_homogeneity(self):
        dist = EllipticalDistribution("student-t", np.array([0.01, -0.02]),
                                      np.array([[0.04, 0.01], [0.0, 0.03]]), 4.0)
        x = np.array([0.3, 0.7])
        v1, c1, r1 = portfolio_loss_stats(dist, x, 0.95)
        v2, c2, r2 = portfolio_loss_stats(dist, 2 * x, 0.95)
        assert v2 + r2 == pytest.approx(2 * (v1 + r1))
        assert c2 + r2 == pytest.approx(2 * (c1 + r1))

    def test_comonotonic_additivity_at_full_correlation(self):
        P = np.array([[0.05, 0.08], [0.0, 0.0]])  # rank-1 rho=1 structure
        # factor must stay invertible; use a near-singular but valid version
        P = np.array([[0.05, 0.08], [0.0, 1e-6]])
        dist = EllipticalDistribution("normal", np.zeros(2), P)
        _, c12, _ = portfolio_loss_stats(dist, [1.0, 1.0], 0.95)
        _, c1, _ = portfolio_loss_stats(dist, [1.0, 0.0], 0.95)
        _, c2, _ = portfolio_loss_stats(dist, [0.0, 1.0], 0.95)
        assert c12 == pytest.approx(c1 + c2, rel=1e-4)


class TestFitting:
    def test_normal_round_trip(self):
        rng = np.random.default_rng(11)
        mu0 = np.array([0.01, 0.02, -0.01])
        sigma0 = np.array([[0.040, 0.010, 0.002],
                           [0.010, 0.090, 0.004],
                           [0.002, 0.004, 0.025]])
        R = rng.multivariate_normal(mu0, sigma0, size=10**5)
        fit = fit_from_returns(R, "normal")
        assert np.linalg.norm(fit.covariance() - sigma0) < 0.02 * np.linalg.norm(sigma0)
        assert np.abs(fit.mu - mu0).max() < 0.002

    def test_student_t_fit_preserves_covariance(self):
        rng = np.random.default_rng(12)
        R = rng.normal(size=(5000, 2)) @ np.array([[0.05, 0.01], [0.0, 0.03]])
        fit = fit_from_returns(R, "student-t", nu=4.0)
        sample_cov = np.cov(R, rowvar=False)
        assert np.allclose(fit.covariance(), sample_cov, atol=1e-12)

    def test_constant_column_rejected(self):
        R = np.column_stack([np.full(50, 0.01), np.random.default_rng(0).normal(size=50)])
        with pytest.raises(ConfigError):
            fit_from_returns(R, "normal")

    def test_singular_covariance_gets_the_ridge(self):
        # two identical columns with exact moments: S = [[4, 4, 0], [4, 4, 0], [0, 0, 1]]
        # has a zero Cholesky pivot, so only S + 1e-10 I factors
        a, b = [2.0, -2.0, 2.0, -2.0, 0.0], [1.0, 1.0, -1.0, -1.0, 0.0]
        fit = fit_from_returns(np.column_stack([a, a, b]), "normal")
        S = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(fit.covariance(), S + 1e-10 * np.eye(3), rtol=0.0, atol=1e-15)

    def test_one_dimensional_fit(self):
        rng = np.random.default_rng(13)
        R = rng.normal(0.01, 0.05, size=(5000, 1))
        fit = fit_from_returns(R, "normal")
        assert fit.factor[0, 0] == pytest.approx(R.std(ddof=1), rel=1e-12)

    def test_needs_enough_rows(self):
        with pytest.raises(ConfigError):
            fit_from_returns(np.zeros((3, 2)) + np.random.default_rng(1).normal(size=(3, 2)), "normal")

    def test_missing_values_rejected(self):
        R = np.random.default_rng(2).normal(size=(30, 2))
        R[4, 1] = np.nan
        with pytest.raises(ConfigError):
            fit_from_returns(R, "normal")


class TestScenarioSet:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            ScenarioSet(np.zeros((2, 1)), np.array([0.6, 0.5]))

    def test_no_negative_probs(self):
        for probs in ([1.1, -0.1], [np.nan, 1.0]):
            with pytest.raises(ConfigError, match="finite and nonnegative"):
                ScenarioSet(np.zeros((2, 1)), np.array(probs))

    def test_no_nonfinite_points(self):
        with pytest.raises(ConfigError):
            ScenarioSet(np.array([[np.inf], [0.0]]), np.array([0.5, 0.5]))


class TestScenarioIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        scen = ScenarioSet.equally_weighted(rng.normal(size=(20, 3)))
        path = tmp_path / "scen.csv"
        save_scenarios(scen, path)
        back = load_scenarios(path)
        assert np.array_equal(back.points, scen.points)
        assert np.array_equal(back.probs, scen.probs)

    @pytest.mark.parametrize("writer", ["save_scenarios", "write_synthetic_returns",
                                        "write_history", "rename"])
    def test_interrupted_write_leaves_target_unchanged(self, tmp_path, monkeypatch, writer):
        def interrupt(*args):
            raise RuntimeError("interrupted")

        class Interrupt:  # raises when a writer formats it as a row
            __float__ = to_dict = interrupt

        path = tmp_path / "target"
        path.write_text("old content\n")
        with pytest.raises(RuntimeError):
            if writer == "save_scenarios":
                scen = ScenarioSet.equally_weighted(np.zeros((2, 1)))
                object.__setattr__(scen, "points", np.array([[0.1], [Interrupt()]], dtype=object))
                save_scenarios(scen, path)
            elif writer == "write_synthetic_returns":
                monkeypatch.setattr(synthetic, "synthetic_returns",
                                    lambda *args: (["A01"], [[0.1], [Interrupt()]]))
                synthetic.write_synthetic_returns(path, 1, 2, 0)
            elif writer == "write_history":
                saa.write_history([SimpleNamespace(to_dict=dict), Interrupt()], path, meta={})
            else:
                monkeypatch.setattr(os, "replace", interrupt)
                save_scenarios(ScenarioSet.equally_weighted(np.zeros((2, 1))), path)
        assert path.read_text() == "old content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prob,y1\n-0.1,1.0\n1.1,2.0\n")
        with pytest.raises(ConfigError):
            load_scenarios(path)

    def test_weight_sum_off_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prob,y1\n0.5,1.0\n0.4,2.0\n")
        with pytest.raises(ConfigError):
            load_scenarios(path)

    def test_hand_fixture_parses(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("prob,a,b\n0.25,1.0,2.0\n0.25,3.0,4.0\n0.5,5.0,6.0\n")
        scen = load_scenarios(path)
        assert scen.points == pytest.approx(np.array([[1, 2], [3, 4], [5, 6]], dtype=float))
        assert scen.probs == pytest.approx([0.25, 0.25, 0.5])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prob,y1\n0.5,1.0\n0.5,oops\n")
        with pytest.raises(ConfigError, match=":3"):
            load_scenarios(path)

    @pytest.mark.parametrize("loader, text", [
        (load_scenarios, "prob,y1\n0.5,1.0\nnan,2.0\n"),
        (load_scenarios, "prob,y1\n0.5,1.0\n0.5,nan\n"),
        (lambda path: fit_from_returns(path, "normal"), "A,B\n0.01,0.02\n-0.01,inf\n"),
        (lambda path: read_csv(path, header=False), "1.0,2.0\n\n-Infinity,4.0\n"),
    ], ids=["scenario-prob", "scenario-outcome", "returns", "points"])
    def test_nonfinite_field_reports_line(self, tmp_path, loader, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"bad\.csv:3: non-finite field"):
            loader(path)

    def test_read_csv_skips_blank_lines_and_reports_ragged_row(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n\n  \n3.0,4.0\n")
        header, data = read_csv(path, header=False)
        assert header is None and data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_text("a,b\n1.0,2.0\n\n3.0\n")
        with pytest.raises(ConfigError, match=":4: expected 2 fields, got 1"):
            read_csv(path)

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("prob,y\u00e9\n1.0,2.0\n".encode("latin-1"))
        with pytest.raises(ConfigError):
            load_scenarios(path)


class TestEmpirical:
    def test_draw_respects_support(self):
        scen = ScenarioSet(np.array([[1.0], [2.0]]), np.array([0.3, 0.7]))
        emp = EmpiricalDistribution(scen)
        pts = emp.draw(np.random.default_rng(0), 5000)
        assert set(np.unique(pts)) <= {1.0, 2.0}
        assert (pts == 2.0).mean() == pytest.approx(0.7, abs=0.03)

    def test_draw_is_the_points_of_the_drawn_indices(self):
        rng = np.random.default_rng(4)
        scen = ScenarioSet(rng.normal(size=(300, 3)), rng.dirichlet(np.ones(300)))
        emp = EmpiricalDistribution(scen)
        by_points, by_index = np.random.default_rng(8), np.random.default_rng(8)
        pts = emp.draw(by_points, 700)
        idx = emp.draw_indices(by_index, 700)
        assert np.array_equal(pts, scen.points[idx])
        assert by_points.random() == by_index.random()  # same stream position after
