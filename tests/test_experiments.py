"""Experiment drivers and the CLI surface: shapes, claims, determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import riskscen
from oracles import ru_lp_oracle
from riskscen import cli, experiments
from riskscen.cones import ConeProjector, FeasibleRegion, conic_hull
from riskscen.cvar_opt import discrete_cvar, solve_lp
from riskscen.distributions import EllipticalDistribution, load_scenarios
from riskscen.errors import ConfigError
from riskscen.experiments import (run_case_study, run_classify, run_prob_table,
                                  run_project, run_reduction_error, run_stability)
from riskscen.risk_region import RiskRegion, estimate_nonrisk_prob
from riskscen.synthetic import skewed_scenarios, write_skewed_scenarios, write_synthetic_returns


def read_table(path):
    """(meta_lines, columns, value rows) of an experiment CSV."""
    lines = path.read_text().strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    columns = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return meta, columns, rows


PUBLIC_API = [
    "AggSampleReport", "Cardinality", "Cone", "ConfigError", "EllipticalDistribution",
    "EmpiricalDistribution", "FeasibleRegion", "PortfolioProblem", "RiskRegion",
    "RiskscenError", "SaaConfig", "SaaState", "ScenarioSet", "Solution", "SolverError",
    "aggregate", "aggregation_reduction", "aggregation_sampling", "classify_batch",
    "cone_member", "conic_hull", "discrete_cvar", "estimate_gap", "estimate_nonrisk_prob",
    "expected_effective_sample_size", "fit_from_returns", "is_risk", "load_scenarios",
    "portfolio_loss_stats", "project_generators", "project_polyhedral", "run_saa", "sample",
    "save_scenarios", "solve_cardinality", "solve_exact_elliptical", "solve_lp",
    "spherical_cvar", "spherical_quantile", "update_ghost_bounds",
]


def test_public_api_is_pinned():
    """Dropping or adding a public name is a deliberate change to this list."""
    assert sorted(riskscen.__all__) == PUBLIC_API
    missing = [name for name in PUBLIC_API if not hasattr(riskscen, name)]
    assert missing == []
    assert riskscen.aggregation_reduction is riskscen.aggregate  # one function, two names


def test_readme_quick_start_runs(capsys):
    """The README's "Library quick start" block runs as printed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


class TestSynthetic:
    def test_returns_file_round_trip(self, tmp_path):
        path = write_synthetic_returns(tmp_path / "ret.csv", 6, 120, 3)
        from riskscen.distributions import load_returns_csv
        tickers, R = load_returns_csv(path)
        assert len(tickers) == 6 and R.shape == (120, 6)
        # positive-leaning correlations on average
        corr = np.corrcoef(R, rowvar=False)
        off = corr[np.triu_indices(6, 1)]
        assert off.mean() > 0.0

    def test_skewed_scenarios_are_left_skewed(self):
        scen = skewed_scenarios(4, 4000, 9)
        centered = scen.points - scen.points.mean(axis=0)
        skew = (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5
        assert np.all(skew < -0.2)


class TestProbTable:
    def test_shape_and_meta(self, tmp_path):
        config = {"family": "normal", "dimensions": [2, 3], "betas": [0.95, 0.99],
                  "quotas": [1.0, 0.6], "trials": 2, "n_points": 400,
                  "source": {"synthetic": {"months": 120}}}
        paths = run_prob_table(config, 7, tmp_path)
        assert sorted(p.name for p in paths) == ["prob-table-normal_2.csv", "prob-table-normal_3.csv"]
        meta, columns, rows = read_table(paths[0])
        assert any("generator:" in m for m in meta)
        assert any("seed: 7" in m for m in meta)
        assert any("config-hash:" in m for m in meta)
        assert columns == ["trial", "q1_b0.95", "q1_b0.99", "q0.6_b0.95", "q0.6_b0.99"]
        assert len(rows) == 2
        vals = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.all((0 <= vals) & (vals <= 1))

    def test_tighter_quota_raises_probability(self, tmp_path):
        config = {"family": "normal", "dimensions": [3], "betas": [0.95],
                  "quotas": [1.0, 0.5], "trials": 2, "n_points": 4000,
                  "source": {"synthetic": {"months": 200}}}
        (path,) = run_prob_table(config, 11, tmp_path)
        _, _, rows = read_table(path)
        sigma2 = 2 * np.sqrt(0.25 / 4000)
        for r in rows:
            loose, tight = float(r[1]), float(r[2])
            assert tight >= loose - sigma2

    def test_higher_beta_raises_probability(self, tmp_path):
        config = {"family": "student-t", "nu": 4.0, "dimensions": [2], "betas": [0.95, 0.99],
                  "quotas": [1.0], "trials": 2, "n_points": 4000,
                  "source": {"synthetic": {"months": 200}}}
        (path,) = run_prob_table(config, 13, tmp_path)
        _, _, rows = read_table(path)
        sigma2 = 2 * np.sqrt(0.25 / 4000)
        for r in rows:
            assert float(r[2]) >= float(r[1]) - sigma2

    def test_rows_monotone_over_nested_quotas_and_beta(self, tmp_path):
        # The cells of a row share their draws, and each draw's verdict can only
        # turn non-risk as the quota tightens or beta grows. Drawn per cell,
        # this config had 40 of 160 adjacent quota pairs inverted by noise.
        quotas, betas = [1.0, 0.9, 0.7, 0.5, 0.3], [0.95, 0.99]
        config = {"family": "student-t", "nu": 4.0, "dimensions": [5, 10], "quotas": quotas,
                  "betas": betas, "trials": 10, "n_points": 2000}
        for path in run_prob_table(config, 3, tmp_path):
            for r in read_table(path)[2]:
                cells = np.array([float(v) for v in r[1:]]).reshape(len(quotas), len(betas))
                assert np.all(np.diff(cells, axis=0) >= 0), r
                assert np.all(np.diff(cells, axis=1) >= 0), r

    def test_infeasible_quota_rejected(self, tmp_path):
        config = {"family": "normal", "dimensions": [2], "betas": [0.95],
                  "quotas": [0.3], "trials": 1, "source": {"synthetic": {}}}
        with pytest.raises(ConfigError):
            run_prob_table(config, 1, tmp_path)

    def test_near_comonotonic_probability_approaches_beta(self):
        # two assets at rho -> 1: the non-risk probability tends to beta
        rho = 0.999
        P = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]])).T
        dist = EllipticalDistribution("normal", np.zeros(2), P)
        region = RiskRegion(dist, conic_hull(FeasibleRegion(2, 1.0)), 0.95)
        est = estimate_nonrisk_prob(region, 2 * 10**5, 3)
        assert est == pytest.approx(0.95, abs=0.01)


class TestStability:
    def test_whole_space_region_makes_methods_indistinguishable(self, tmp_path):
        config = {"family": "normal", "dimensions": [3], "trials": 1, "sets": 30,
                  "n_risk_target": 60, "beta": 0.95, "threshold_override": 0.0,
                  "source": {"synthetic": {"months": 200}}}
        paths = run_stability(config, 19, tmp_path)
        gaps_path = [p for p in paths if "gaps" in p.name][0]
        _, _, rows = read_table(gaps_path)
        basic = [float(r[3]) for r in rows if r[2] == "sampling"]
        agg = [float(r[3]) for r in rows if r[2] == "aggregation"]
        # with an everything-is-risk region both methods draw plain samples
        t_stat, p_val = stats.ttest_ind(basic, agg)
        assert p_val > 0.01

    def test_summary_table_shape(self, tmp_path):
        config = {"family": "normal", "dimensions": [2], "trials": 2, "sets": 8,
                  "n_risk_target": 40, "beta": 0.95,
                  "source": {"synthetic": {"months": 150}}}
        paths = run_stability(config, 23, tmp_path)
        summary = [p for p in paths if "gaps" not in p.name][0]
        _, columns, rows = read_table(summary)
        assert columns == ["trial", "mean_sampling", "sd_sampling",
                           "mean_aggregation", "sd_aggregation"]
        assert len(rows) == 2
        vals = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.all(vals >= -1e-9)  # gaps are true-objective suboptimalities

    def test_empirical_gaps_are_exact_over_the_atoms(self, tmp_path, monkeypatch):
        """Each gap is the set solution's CVaR over the file's atoms minus the
        atom LP's optimum, here from HiGHS."""
        scen_path = tmp_path / "scen.csv"
        write_skewed_scenarios(scen_path, 4, 300, 5)
        atoms = load_scenarios(scen_path)
        solved = []

        def recording(problem, scenarios):
            sol = solve_lp(problem, scenarios)
            solved.append((problem, scenarios, sol))
            return sol

        monkeypatch.setattr(experiments, "solve_lp", recording)
        config = {"source": {"scenario_csv": str(scen_path)}, "sets": 3,
                  "n_risk_target": 30, "beta": 0.95, "family": "student-t", "nu": 4.0}
        paths = run_stability(config, 37, tmp_path)
        summary = [p for p in paths if "gaps" not in p.name][0]
        assert "empirical" in summary.name
        gaps_path = [p for p in paths if "gaps" in p.name][0]
        gaps = {(r[2], int(r[1])): float(r[3]) for r in read_table(gaps_path)[2]}

        problem = solved[0][0]
        assert solved[0][1].n == atoms.n  # the first solve is the file's own problem
        optimum = ru_lp_oracle(atoms.points, atoms.probs, 0.95, problem.region.lower,
                               problem.region.upper, problem.mu, tau=problem.tau)
        # each set solves aggregation, then basic sampling
        set_solutions = [sol.x for _, _, sol in solved[1:]]
        assert len(set_solutions) == 2 * config["sets"] == len(gaps)
        for i in range(config["sets"]):
            for method, x in (("aggregation", set_solutions[2 * i]),
                              ("sampling", set_solutions[2 * i + 1])):
                cvar = discrete_cvar(atoms, x, 0.95)
                assert gaps[(method, i + 1)] == pytest.approx(
                    cvar - optimum, abs=1e-9 * (1.0 + abs(cvar)))

    @pytest.mark.parametrize("match_effective", [True, False])
    def test_basic_sets_match_their_aggregation_run(self, tmp_path, monkeypatch,
                                                     match_effective):
        """Each basic-sampling set has as many points as its paired aggregation
        run drew with match_effective, and as many as that run kept without."""
        reports, basic_sets = [], []
        aggregation_sampling, sample = experiments.aggregation_sampling, experiments.sample

        def recording_aggregation(*args):
            reports.append(aggregation_sampling(*args))
            return reports[-1]

        def recording_sample(*args):
            basic_sets.append(sample(*args))
            return basic_sets[-1]

        monkeypatch.setattr(experiments, "aggregation_sampling", recording_aggregation)
        monkeypatch.setattr(experiments, "sample", recording_sample)
        config = {"family": "normal", "dimensions": [2], "trials": 1, "sets": 3,
                  "n_risk_target": 20, "beta": 0.95, "match_effective": match_effective,
                  "source": {"synthetic": {"months": 100}}}
        run_stability(config, 5, tmp_path)
        assert len(reports) == len(basic_sets) == 3
        assert all(r.effective_sample_size > r.scenarios.n for r in reports)
        for rep, scen in zip(reports, basic_sets):
            assert scen.n == (rep.effective_sample_size if match_effective else rep.scenarios.n)

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_match_effective_must_be_a_boolean(self, tmp_path, value):
        config = {"dimensions": [2], "sets": 2, "n_risk_target": 20, "match_effective": value,
                  "source": {"synthetic": {"months": 100}}}
        with pytest.raises(ConfigError, match="match_effective"):
            run_stability(config, 1, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.slow
    def test_more_constrained_works_better_at_d20(self, tmp_path):
        """The abstract's claim that the method "works better as the feasible set
        of portfolios becomes more constrained": per trial, quota 0.1 beats quota
        1.0 on the non-risk probability and on the ratio of mean sampling gap to
        mean aggregation gap. Budget 60 s; about 6 s on a 2-core host."""
        t0 = time.perf_counter()
        base = {"family": "student-t", "nu": 4.0, "dimensions": [20], "trials": 2}
        prob, ratio = {}, {}
        for quota in (1.0, 0.1):
            out = tmp_path / f"q{quota}"
            out.mkdir()
            (table,) = run_prob_table({**base, "quotas": [quota], "betas": [0.95]}, 3, out)
            summary = run_stability({**base, "sets": 20, "n_risk_target": 100, "beta": 0.95,
                                     "quota": quota}, 3, out)[0]
            prob[quota] = [float(r[1]) for r in read_table(table)[2]]
            ratio[quota] = [float(r[1]) / float(r[3]) for r in read_table(summary)[2]]
        elapsed = time.perf_counter() - t0
        print(f"\n[claim] more constrained works better ({elapsed:.1f}s / budget 60s) "
              f"non-risk prob {prob} gap ratio {ratio}")
        assert all(tight > loose for loose, tight in zip(prob[1.0], prob[0.1]))
        assert all(tight > loose for loose, tight in zip(ratio[1.0], ratio[0.1]))
        assert elapsed < 60, f"overran its 60 s budget: {elapsed:.1f}s"


class TestReductionError:
    def test_table_shapes_and_nonnegativity(self, tmp_path):
        config = {"family": "normal", "dimensions": [3], "trials": 2,
                  "sizes": [80, 150], "betas": [0.95, 0.99], "sets": 5,
                  "source": {"synthetic": {"months": 150}}}
        paths = run_reduction_error(config, 29, tmp_path)
        err_path = [p for p in paths if "error" in p.name][0]
        prop_path = [p for p in paths if "proportion" in p.name][0]
        _, columns, rows = read_table(err_path)
        assert columns == ["trial", "n80_b0.95", "n80_b0.99", "n150_b0.95", "n150_b0.99"]
        errs = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.all(errs >= -1e-9)
        _, _, prop_rows = read_table(prop_path)
        props = np.array([[float(v) for v in r[1:]] for r in prop_rows])
        assert np.all((0 <= props) & (props <= 1))


@pytest.mark.parametrize("run, config", [
    (run_stability, {"dimensions": [30, 10], "quota": 0.05, "sets": 2, "n_risk_target": 20}),
    (run_reduction_error, {"dimensions": [30, 10], "quota": 0.05, "sizes": [40],
                           "betas": [0.95], "sets": 1}),
    (run_prob_table, {"dimensions": [30, 10], "quotas": [0.05], "betas": [0.95], "trials": 1,
                      "n_points": 50}),
], ids=["stability", "reduction-error", "prob-table"])
def test_infeasible_quota_rejected_before_any_work(tmp_path, monkeypatch, run, config):
    """A 0.05 quota reaches the budget at d = 30 but not at d = 10, so the
    command must refuse before the d = 30 cell solves or classifies anything."""
    for name in ("solve_exact_elliptical", "solve_lp", "classify_mask"):
        monkeypatch.setattr(experiments, name,
                            lambda *args, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(ConfigError, match="quota"):
        run(config, 1, tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestCaseStudy:
    def test_smoke_outputs(self, tmp_path):
        config = {
            "source": {"synthetic_skewed": {"d": 5, "n": 400}},
            "max_assets": 2, "beta": 0.95,
            "modes": ["basic-sampling", "aggregation"],
            "saa": {"n0": 30, "dn": 10, "replications": 2,
                    "gap_tol": 0.0, "var_tol": 0.0, "max_iterations": 2},
        }
        paths = run_case_study(config, 31, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["case-boxplot.csv", "case-gap.csv", "case-prob.csv", "case-summary.csv"]
        assert (tmp_path / "case-history-aggregation.jsonl").exists()
        _, cols, rows = read_table(tmp_path / "case-summary.csv")
        assert cols[0] == "mode" and len(rows) == 2
        # every final solution respects the cardinality limit
        hist = [json.loads(l) for l in
                (tmp_path / "case-history-aggregation.jsonl").read_text().splitlines()]
        assert "meta" in hist[0] and "seed" in hist[0]["meta"]
        for rec in hist[1:]:
            for z in rec["supports"]:
                assert sum(z) <= 2

    def test_out_of_sample_values_are_exact_over_the_atoms(self, tmp_path):
        scen_path = tmp_path / "scen.csv"
        write_skewed_scenarios(scen_path, 5, 400, 3)
        atoms = load_scenarios(scen_path)
        config = {"source": {"scenario_csv": str(scen_path)},
                  "max_assets": 2, "beta": 0.95,
                  "modes": ["basic-sampling", "aggregation+ghost"],
                  "saa": {"n0": 30, "dn": 10, "replications": 2,
                          "gap_tol": 0.0, "var_tol": 0.0, "max_iterations": 2}}
        run_case_study(config, 31, tmp_path)
        _, _, box_rows = read_table(tmp_path / "case-boxplot.csv")
        _, _, summary_rows = read_table(tmp_path / "case-summary.csv")
        summary = {r[0]: r for r in summary_rows}
        for mode in config["modes"]:
            lines = (tmp_path / f"case-history-{mode}.jsonl").read_text().splitlines()
            states = [json.loads(line)["solutions"] for line in lines[1:]]
            final = states[-1]
            exact = [discrete_cvar(atoms, np.array(x), 0.95) for x in final]
            values = [float(r[2]) for r in box_rows if r[0] == mode]
            assert [int(r[1]) for r in box_rows if r[0] == mode] == list(range(1, len(final) + 1))
            assert values == exact
            assert float(summary[mode][1]) == float(np.median(exact))
            assert float(summary[mode][2]) == min(exact)
            # the SAA pick is screened over every iteration's candidates, exactly
            assert float(summary[mode][3]) == min(discrete_cvar(atoms, np.array(x), 0.95)
                                                  for xs in states for x in xs)

    @pytest.mark.slow
    def test_order_of_medians_at_d30(self, tmp_path):
        # criterion 09's settings at d = 30 and max_assets 8, with its 0.5% tie band
        config = {"source": {"synthetic_skewed": {"d": 30, "n": 3000}},
                  "max_assets": 8, "beta": 0.99,
                  "modes": ["basic-sampling", "aggregation", "aggregation+ghost"],
                  "saa": {"n0": 200, "dn": 100, "replications": 10,
                          "gap_tol": 0.0, "var_tol": 0.0, "max_iterations": 4}}
        run_case_study(config, 90_900, tmp_path)
        _, _, box_rows = read_table(tmp_path / "case-boxplot.csv")
        med = {m: float(np.median([float(r[2]) for r in box_rows if r[0] == m]))
               for m in config["modes"]}
        band = 0.005 * med["basic-sampling"]
        assert med["aggregation+ghost"] <= med["aggregation"] + band
        assert med["aggregation"] <= med["basic-sampling"] + band


class TestAdHocCommands:
    def test_project_echo(self, tmp_path):
        config = {"cone": {"d": 2, "generators": [[1.0, 0.0], [0.0, 1.0]]},
                  "points": [[-1.0, 2.0]]}
        out = run_project(config, 1, tmp_path)
        assert "projection" in out and "[0." in out

    def test_project_builds_one_projector(self, tmp_path, monkeypatch):
        built = []

        class Counted(ConeProjector):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ConeProjector", Counted)
        config = {"cone": {"d": 2, "facets": [[1.0, 0.0], [0.0, 1.0]]},
                  "points": [[-1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]}
        out = run_project(config, 1, tmp_path)
        assert len(out.splitlines()) == 3
        assert len(built) == 1

    def test_classify_echo(self, tmp_path, monkeypatch):
        calls = []
        project = ConeProjector.project

        def counting(self, x0):
            calls.append(np.atleast_2d(x0).shape[0])
            return project(self, x0)

        monkeypatch.setattr(ConeProjector, "project", counting)
        config = {"region": {"d": 2, "capital": 1.0},
                  "distribution": {"family": "normal", "mu": [0.0, 0.0],
                                   "factor": [[1.0, 0.0], [0.0, 1.0]]},
                  "beta": 0.95,
                  "points": [[-3.0, 0.0], [3.0, 3.0]]}
        out = run_classify(config, 1, tmp_path)
        lines = out.splitlines()
        assert "risk" in lines[1] and "non-risk" in lines[2]
        assert calls == [1, 1]  # one single-point projection per point

    def test_malformed_points_csv_reports_line(self, tmp_path):
        bad = tmp_path / "pts.csv"
        bad.write_text("1.0,2.0\n1.0,oops\n")
        config = {"cone": {"d": 2, "facets": [[1.0, 0.0], [0.0, 1.0]]},
                  "points_csv": str(bad)}
        with pytest.raises(ConfigError, match=":2"):
            run_project(config, 1, tmp_path)


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "riskscen.cli", *args],
                              capture_output=True, text=True)

    def test_exit_zero_and_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "normal", "dimensions": [2], "betas": [0.95], "quotas": [1.0],
            "trials": 1, "n_points": 200, "source": {"synthetic": {"months": 100}}}))
        res = self._run("prob-table", "--config", str(cfg), "--seed", "3",
                        "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "prob-table-normal_2.csv").exists()

    def test_config_error_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "normal", "dimensions": [2], "betas": [0.95], "quotas": [0.2],
            "trials": 1, "source": {"synthetic": {}}}))
        res = self._run("prob-table", "--config", str(cfg), "--seed", "3",
                        "--out", str(tmp_path))
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        scenarios = write_skewed_scenarios(tmp_path / "scenarios.csv", 2, 50, 1)
        for command, config, name in [
            ("prob-table", {"dimensions": [2], "trials": 1, "betas": [0.9], "n_point": 5},
             "'n_point'"),
            ("prob-table", {"dimensions": [2], "source": {"synthetic": {"month": 5}}},
             "'source.synthetic.month'"),
            # the empirical stability grader no longer draws a reference sample
            ("stability", {"source": {"scenario_csv": str(scenarios)}, "sets": 2,
                           "n_risk_target": 10, "reference_n": 8000}, "'reference_n'"),
        ]:
            cfg.write_text(json.dumps(config))
            assert cli.main([command, "--config", str(cfg), "--seed", "1",
                             "--out", str(tmp_path / "out")]) == 2
            assert f"unknown key {name}" in capsys.readouterr().err
            assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    @pytest.mark.parametrize("source", ["returns_csv", "synthetic"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, source, seed):
        returns = write_synthetic_returns(tmp_path / "ret.csv", 3, 60, 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dimensions": [2], "sets": 2, "n_risk_target": 10,
            "source": {"returns_csv": str(returns)} if source == "returns_csv"
            else {"synthetic": {"months": 60}}}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["stability", "--config", str(cfg), "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "normal", "dimensions": [2], "betas": [0.95], "quotas": [1.0],
            "trials": 1, "n_points": 50, "source": {"synthetic": {"months": 60}}}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["prob-table", "--config", str(cfg), "--seed", "1", "--jobs", jobs,
                      "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_64_bit_seed_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "normal", "dimensions": [2], "betas": [0.95], "quotas": [1.0],
            "trials": 1, "n_points": 50, "source": {"synthetic": {"months": 60}}}))
        assert cli.main(["prob-table", "--config", str(cfg), "--seed", str(2**64 - 1),
                         "--out", str(tmp_path)]) == 0

    def test_missing_config_exits_2(self, tmp_path):
        res = self._run("classify", "--config", str(tmp_path / "nope.json"), "--seed", "1")
        assert res.returncode == 2

    def test_project_subcommand_stdout(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "cone": {"d": 2, "facets": [[1.0, 0.0], [0.0, 1.0]]},
            "points": [[-1.0, 2.0]]}))
        res = self._run("project", "--config", str(cfg), "--seed", "1")
        assert res.returncode == 0
        assert "projection" in res.stdout

    _CONE = {"d": 2, "facets": [[1.0, 0.0], [0.0, 1.0]]}
    _NORMAL_2D = {"mu": [0.0, 0.0], "factor": [[1.0, 0.0], [0.0, 1.0]]}
    _TINY_SAA = {"n0": 20, "dn": 10, "replications": 2, "max_iterations": 1}

    # MISSING stands for a path that does not exist, SCENARIOS for a valid scenario file.
    @pytest.mark.parametrize("command, config", [
        ("project", {"region": {"d": 2, "rows": [{"b": 0.5}]}, "points": [[1.0, 0.0]]}),
        ("project", {"region": {"d": 2, "upper": [0.6, 0.6, 0.6]}, "points": [[1.0, 0.0]]}),
        ("project", {"cone": _CONE, "points": [[1.0, 0.0, 2.0]]}),
        ("classify", {"cone": _CONE, "distribution": _NORMAL_2D, "points": [[1.0, 0.0, 2.0]]}),
        ("prob-table", {"dimensions": [2], "trials": 1, "source": {"returns_csv": "MISSING"}}),
        ("stability", {"source": {"scenario_csv": "MISSING"}}),
        ("case-study", {"source": {"scenario_csv": "MISSING"}}),
        ("project", {"cone": _CONE, "points_csv": "MISSING"}),
        ("prob-table", {"family": "cauchy", "dimensions": [2], "trials": 1,
                        "source": {"synthetic": {}}}),
        ("prob-table", {"dimensions": [2], "trials": 1, "source": {"synthetic": {"months": "x"}}}),
        ("stability", {"dimensions": [2], "quota": "a", "source": {"synthetic": {}}}),
        ("reduction-error", {"dimensions": [2], "sets": "x", "source": {"synthetic": {}}}),
        ("case-study", {"source": {"synthetic_skewed": {"d": 3, "n": 100}}, "max_assets": 2,
                        "saa": {"bogus": 1}}),
        ("case-study", {"source": {"synthetic_skewed": {"d": 3, "n": 100}}, "max_assets": 2,
                        "beta": 0.9, "modes": ["basic-sampling", "nope"], "saa": _TINY_SAA}),
        ("project", {"cone": {"facets": [[1.0, 0.0]]}, "points": [[1.0, 0.0]]}),
        ("project", {"cone": {"d": "x", "facets": [[1.0, 0.0]]}, "points": [[1.0, 0.0]]}),
        ("project", {"cone": {"d": 2, "facets": [[1.0, 0.0], [1.0]]}, "points": [[1.0, 0.0]]}),
        ("project", {"cone": {"d": 2, "generators": [[1.0, 0.0], [1.0]]},
                     "points": [[1.0, 0.0]]}),
        ("project", {"cone": _CONE, "points": [[1.0, 0.0], [1.0]]}),
        ("project", {"cone": _CONE, "points": [[1.0, "a"]]}),
        ("classify", {"cone": _CONE, "distribution": {"factor": [[1.0, 0.0], [0.0, 1.0]]},
                      "points": [[1.0, 0.0]]}),
        ("classify", {"cone": _CONE, "distribution": {"mu": [0.0, 0.0],
                                                      "factor": [[1.0, 0.0], [0.0]]},
                      "points": [[1.0, 0.0]]}),
        ("prob-table", [1, 2]),
        ("stability", [1, 2]),
        ("case-study", [1, 2]),
        ("project", 5),
        ("classify", {"cone": _CONE, "distribution": [1], "points": [[1.0, 0.0]]}),
        ("prob-table", {"dimensions": [2], "trials": 1, "source": {"synthetic": 5}}),
        ("prob-table", {"dimensions": [2], "trials": 1, "betas": [0.9], "n_point": 5}),
        ("stability", {"dimensions": [2], "sets": 2, "n_risk_targt": 20}),
        ("reduction-error", {"dimensions": [2], "sizes": [20], "sets": 1, "quotas": 1.0}),
        ("case-study", {"source": {"synthetic_skewed": {"d": 3, "n": 100}}, "max_asset": 2,
                        "beta": 0.9, "modes": ["basic-sampling"], "saa": _TINY_SAA}),
        ("project", {"cone": _CONE, "points": [[1.0, 0.0]], "pionts": [[0.0, 1.0]]}),
        ("classify", {"cone": _CONE, "distribution": _NORMAL_2D, "points": [[1.0, 0.0]],
                      "bta": 0.9}),
        ("stability", {"dimensions": [2], "sets": 2, "source": {"scenario_csv": "SCENARIOS"}}),
        ("prob-table", {"dimensions": [2], "trials": 1, "betas": [0.9], "n_points": 50,
                        "source": {"synthetic": {"month": 5}}}),
        ("project", {"cone": dict(_CONE, generator=[[1.0, 0.0]]), "points": [[1.0, 0.0]]}),
        ("project", {"region": {"d": 2, "rows": [{"a": [1.0, 0.0], "b": 0.5, "bb": 1.0}]},
                     "points": [[1.0, 0.0]]}),
        ("classify", {"cone": _CONE, "distribution": dict(_NORMAL_2D, famliy="student-t"),
                      "points": [[1.0, 0.0]]}),
        ("case-study", {"source": {"synthetic_skewed": {"d": 3, "n": 100}}, "max_assets": 2,
                        "beta": 0.9, "modes": [], "saa": _TINY_SAA}),
        ("case-study", {"source": {"synthetic_skewed": {"d": 3, "n": 100}}, "max_assets": 2,
                        "beta": 0.9, "modes": ["basic-sampling"],
                        "saa": dict(_TINY_SAA, max_iterations=0)}),
        ("stability", {"dimensions": [2], "sets": 1, "n_risk_target": 20,
                       "source": {"synthetic": {"months": 100}}}),
        ("reduction-error", {"dimensions": [2], "sizes": [20], "betas": [0.95], "sets": 0,
                             "source": {"synthetic": {"months": 100}}}),
        ("prob-table", {"dimensions": [2], "trials": 1, "betas": [0.9], "n_points": 0,
                        "source": {"synthetic": {"months": 100}}}),
    ], ids=["row-without-a", "bounds-wrong-length", "project-width", "classify-width",
            "missing-returns-csv", "missing-scenario-csv-stability",
            "missing-scenario-csv-case-study", "missing-points-csv", "unknown-family",
            "months-not-a-number", "quota-not-a-number", "sets-not-a-number",
            "unknown-saa-key", "bad-second-mode", "cone-without-d", "cone-d-not-a-number",
            "ragged-facets", "ragged-generators", "ragged-points", "non-numeric-point",
            "classify-without-mu", "classify-ragged-factor", "prob-table-config-a-list",
            "stability-config-a-list", "case-study-config-a-list", "project-config-a-number",
            "distribution-a-list", "synthetic-a-number", "prob-table-misspelt-key",
            "stability-misspelt-key", "reduction-error-misspelt-key", "case-study-misspelt-key",
            "project-misspelt-key", "classify-misspelt-key", "dimensions-with-scenario-csv",
            "synthetic-misspelt-key", "cone-misspelt-key", "region-row-misspelt-key",
            "distribution-misspelt-key", "case-study-no-modes", "case-study-no-iterations",
            "stability-one-set", "reduction-error-no-sets", "prob-table-no-points"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, config):
        """Exit 2 with a config error before any output: the bad-second-mode
        case study must not run (and write) its first mode."""
        scenarios = tmp_path / "scenarios.csv"
        write_skewed_scenarios(scenarios, 2, 50, 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config).replace("MISSING", str(tmp_path / "missing.csv"))
                       .replace("SCENARIOS", str(scenarios)))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestDeterminism:
    def test_prob_table_reruns_byte_identical(self, tmp_path):
        config = {"family": "normal", "dimensions": [2], "betas": [0.95],
                  "quotas": [1.0, 0.7], "trials": 2, "n_points": 300,
                  "source": {"synthetic": {"months": 100}}}
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        (p1,) = run_prob_table(config, 41, a)
        (p2,) = run_prob_table(config, 41, b)
        assert p1.read_bytes() == p2.read_bytes()

    # 2 dimensions x 2 trials (or 3 case-study modes), so jobs=2 really fans
    # the cells out to a pool
    @pytest.mark.parametrize("run, config", [
        (run_prob_table, {"family": "normal", "dimensions": [2, 3], "betas": [0.95],
                          "quotas": [1.0], "trials": 2, "n_points": 200,
                          "source": {"synthetic": {"months": 100}}}),
        (run_stability, {"family": "normal", "dimensions": [2, 3], "trials": 2, "sets": 3,
                         "n_risk_target": 20, "beta": 0.95,
                         "source": {"synthetic": {"months": 100}}}),
        (run_reduction_error, {"family": "normal", "dimensions": [2, 3], "trials": 2,
                               "sizes": [40], "betas": [0.95], "sets": 2,
                               "source": {"synthetic": {"months": 100}}}),
        (run_case_study, {"source": {"synthetic_skewed": {"d": 5, "n": 400}},
                          "max_assets": 2, "beta": 0.95,
                          "modes": ["basic-sampling", "aggregation", "aggregation+ghost"],
                          "saa": {"n0": 30, "dn": 10, "replications": 2,
                                  "gap_tol": 0.0, "var_tol": 0.0, "max_iterations": 2}}),
    ], ids=["prob-table", "stability", "reduction-error", "case-study"])
    def test_jobs_do_not_change_bytes(self, tmp_path, run, config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        pa = run(config, 43, a, jobs=1)
        pb = run(config, 43, b, jobs=2)
        assert [x.name for x in pa] == [y.name for y in pb]
        for x, y in zip(pa, pb):
            assert x.read_bytes() == y.read_bytes()

    def test_pool_starts_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        # the pool starts every worker at its first submit; a serial stand-in
        # records the size asked for and starts no process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        config = {"family": "normal", "dimensions": [2, 3], "betas": [0.95], "quotas": [1.0],
                  "trials": 2, "n_points": 50, "source": {"synthetic": {"months": 100}}}
        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        pooled = run_prob_table(config, 43, tmp_path / "a", jobs=5000)
        serial = run_prob_table(config, 43, tmp_path / "b", jobs=1)
        assert asked == [4]  # 2 dimensions x 2 trials
        assert [x.read_bytes() for x in pooled] == [y.read_bytes() for y in serial]

    def test_reduction_error_reruns_byte_identical(self, tmp_path):
        config = {"family": "normal", "dimensions": [2], "trials": 1,
                  "sizes": [60], "betas": [0.95], "sets": 3,
                  "source": {"synthetic": {"months": 100}}}
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        for x, y in zip(run_reduction_error(config, 47, a),
                        run_reduction_error(config, 47, b)):
            assert x.read_bytes() == y.read_bytes()

    def test_provenance_runs_git_describe_once(self, monkeypatch):
        calls = []
        run = subprocess.run
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: calls.append(a) or run(*a, **k))
        experiments.git_describe.cache_clear()
        try:
            first = experiments.provenance({"a": 1}, 1)
            assert experiments.provenance({"a": 1}, 1) == first
        finally:
            experiments.git_describe.cache_clear()  # forget what ran under the patch
        assert len(calls) == 1
