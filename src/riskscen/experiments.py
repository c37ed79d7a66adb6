"""Experiment drivers behind the CLI: desk-scale reproductions.

Each experiment reads a JSON config, derives every random stream from the
master seed, and writes CSV tables (rows = trials, labeled columns) whose
numeric content is byte-identical across reruns of the same (config, seed).
Output files start with comment lines carrying the generator version, the
master seed, and a hash of the config. Cells are independent, so trials can
fan out over worker processes; files are written atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .cones import Cone, FeasibleRegion, conic_hull, project
from .cvar_opt import (P1, Cardinality, PortfolioProblem, discrete_cvar,
                       solve_exact_elliptical, solve_lp)
from .distributions import (EllipticalDistribution, EmpiricalDistribution,
                            fit_from_returns, load_returns_csv, load_scenarios,
                            portfolio_loss_stats, sample)
from .errors import ConfigError
from .risk_region import BOUNDARY_TOL, RiskRegion, estimate_nonrisk_prob
from .saa import MODES, SaaConfig, run_saa, write_history
from .scenario_gen import aggregation_reduction, aggregation_sampling
from .seeding import GENERATOR_NAME, child_seed, rng_from
from .synthetic import skewed_scenarios, synthetic_returns

_T_SUBSET, _T_PROB, _T_STAB, _T_RED, _T_CASE, _T_VAL = 11, 12, 13, 14, 15, 16

_FAMILY_TAG = {"normal": "normal", "student-t": "tdist"}


# ---------------------------------------------------------------------------
# output plumbing


def git_describe() -> str:
    here = Path(__file__).resolve().parent
    try:
        res = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, cwd=here, timeout=10,
        )
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except OSError:
        pass
    from . import __version__

    return f"riskscen-{__version__}"


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def header_lines(config: dict, seed: int) -> list[str]:
    return [
        f"# generator: riskscen {git_describe()}",
        f"# rng: {GENERATOR_NAME}",
        f"# seed: {seed}",
        f"# config-hash: {config_hash(config)}",
    ]


def atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_table(path: Path, meta: list[str], columns: list[str], rows: list[list]) -> None:
    lines = list(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _run_cells(fn, specs: list, jobs: int) -> list:
    if jobs <= 1 or len(specs) <= 1:
        return [fn(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, specs))


# ---------------------------------------------------------------------------
# distribution sources


def _universe(config: dict, seed: int):
    """(tickers, return matrix) for company subsetting across trials."""
    src = config.get("source", {"synthetic": {}})
    if "returns_csv" in src:
        return load_returns_csv(src["returns_csv"])
    if "synthetic" in src:
        opts = src["synthetic"] or {}
        dims = config.get("dimensions", [config.get("d", 5)])
        width = int(opts.get("universe", max(30, 3 * max(dims))))
        months = int(opts.get("months", 240))
        return synthetic_returns(width, months, child_seed(seed, _T_SUBSET, 0))
    raise ConfigError("source must provide 'returns_csv' or 'synthetic'")


def _trial_columns(seed: int, trial: int, d: int, width: int) -> np.ndarray:
    rng = rng_from(child_seed(seed, _T_SUBSET, trial, d))
    return np.sort(rng.choice(width, size=d, replace=False))


def _trial_distribution(config, seed, trial, d, universe) -> EllipticalDistribution:
    _, returns = universe
    if returns.shape[1] < d:
        raise ConfigError(f"universe has {returns.shape[1]} assets, trial needs {d}")
    cols = _trial_columns(seed, trial, d, returns.shape[1])
    family = config.get("family", "normal")
    return fit_from_returns(returns[:, cols], family, nu=float(config.get("nu", 4.0)))


def _quota_region(d: int, quota: float, capital: float = 1.0) -> FeasibleRegion:
    if d * quota < capital - 1e-12:
        raise ConfigError(f"quota {quota} with d={d} cannot reach the budget; infeasible")
    return FeasibleRegion(d, capital, upper=np.full(d, min(quota, capital)))


# ---------------------------------------------------------------------------
# prob-table


def run_prob_table(config: dict, seed: int, out: Path, jobs: int = 1) -> list[Path]:
    """Monte Carlo non-risk probabilities over (trial, quota, beta) grids."""
    dims = [int(v) for v in config.get("dimensions", [5])]
    betas = [float(v) for v in config.get("betas", [0.95, 0.99])]
    quotas = [float(v) for v in config.get("quotas", [1.0])]
    trials = int(config.get("trials", 5))
    n_points = int(config.get("n_points", 2000))
    for d in dims:
        for q in quotas:
            _quota_region(d, q)  # validate feasibility up front
    universe = _universe(config, seed)
    fam = _FAMILY_TAG[config.get("family", "normal")]
    meta = header_lines(config, seed)

    specs = [(config, seed, trial, d, betas, quotas, n_points, universe)
             for d in dims for trial in range(trials)]
    results = dict(zip([(s[3], s[2]) for s in specs], _run_cells(_prob_cell, specs, jobs)))

    paths = []
    for d in dims:
        columns = ["trial"] + [f"q{q:g}_b{b:g}" for q in quotas for b in betas]
        rows = [[t + 1] + results[(d, t)] for t in range(trials)]
        path = out / f"prob-table-{fam}_{d}.csv"
        write_table(path, meta, columns, rows)
        paths.append(path)
    return paths


def _prob_cell(spec):
    config, seed, trial, d, betas, quotas, n_points, universe = spec
    dist = _trial_distribution(config, seed, trial, d, universe)
    values = []
    for qi, q in enumerate(quotas):
        cone = conic_hull(_quota_region(d, q))
        for bi, b in enumerate(betas):
            region = RiskRegion(dist, cone, b)
            values.append(estimate_nonrisk_prob(
                region, n_points, child_seed(seed, _T_PROB, trial, d, qi, bi)))
    return values


# ---------------------------------------------------------------------------
# stability


def run_stability(config: dict, seed: int, out: Path, jobs: int = 1) -> list[Path]:
    """Optimality-gap comparison: basic sampling vs aggregation sampling.

    Aggregation targets `n_risk_target` risk scenarios; basic sampling is
    matched to the realized scenario count (or to the effective sample size
    when `match_effective` is set). The true optimum comes from the exact
    elliptical solver, or from a large reference sample for empirical
    sources.
    """
    nsets = int(config.get("sets", 50))
    beta = float(config.get("beta", 0.95))
    target = int(config.get("n_risk_target", 100))
    match_effective = bool(config.get("match_effective", False))
    quota = float(config.get("quota", 1.0))
    empirical = "scenario_csv" in config.get("source", {})
    if empirical:
        scen = load_scenarios(config["source"]["scenario_csv"])
        dims = [scen.d]
        trials = 1
        universe = None
        fam = "empirical"
    else:
        dims = [int(v) for v in config.get("dimensions", [10])]
        trials = int(config.get("trials", 1))
        universe = _universe(config, seed)
        fam = _FAMILY_TAG[config.get("family", "normal")]
    meta = header_lines(config, seed)

    specs = [(config, seed, trial, d, beta, target, nsets, match_effective, quota, universe)
             for d in dims for trial in range(trials)]
    results = dict(zip([(s[3], s[2]) for s in specs], _run_cells(_stability_cell, specs, jobs)))

    paths = []
    for d in dims:
        columns = ["trial", "mean_sampling", "sd_sampling", "mean_aggregation", "sd_aggregation"]
        rows, gap_rows = [], []
        for t in range(trials):
            basic, agg = results[(d, t)]
            rows.append([t + 1, float(np.mean(basic)), float(np.std(basic, ddof=1)),
                         float(np.mean(agg)), float(np.std(agg, ddof=1))])
            gap_rows.extend([[t + 1, i + 1, "sampling", g] for i, g in enumerate(basic)])
            gap_rows.extend([[t + 1, i + 1, "aggregation", g] for i, g in enumerate(agg)])
        path = out / f"stability-{fam}_{d}.csv"
        write_table(path, meta, columns, rows)
        plot = out / f"stability-gaps-{fam}_{d}.csv"
        write_table(plot, meta, ["trial", "set", "method", "gap"], gap_rows)
        paths.extend([path, plot])
    return paths


def _stability_cell(spec):
    config, seed, trial, d, beta, target, nsets, match_effective, quota, universe = spec
    if universe is None:
        # empirical source: resample the file, grade against a large reference set
        file_scen = load_scenarios(config["source"]["scenario_csv"])
        sampler = EmpiricalDistribution(file_scen)
        surrogate = fit_from_returns(file_scen.points, config.get("family", "student-t"),
                                     nu=float(config.get("nu", 4.0)), weights=file_scen.probs)
        region_dist = surrogate
        mu = sampler.mean
    else:
        sampler = region_dist = _trial_distribution(config, seed, trial, d, universe)
        mu = region_dist.mu
    region = _quota_region(d, quota)
    problem = PortfolioProblem(region, beta, mu=mu, mode=P1)
    override = config.get("threshold_override")
    rr = RiskRegion(region_dist, conic_hull(region), beta,
                    threshold=None if override is None else float(override))

    if universe is None:
        reference = sample(sampler, int(config.get("reference_n", 200_000)),
                           child_seed(seed, _T_STAB, trial, d, 10**6))
        truth = solve_lp(problem, reference)

        def true_gap(x):
            return discrete_cvar(reference, x, beta) - truth.cvar
    else:
        truth = solve_exact_elliptical(problem, region_dist)

        def true_gap(x):
            _, cvar, _ = portfolio_loss_stats(region_dist, x, beta)
            return cvar - truth.cvar

    basic_gaps, agg_gaps = [], []
    for i in range(nsets):
        rep = aggregation_sampling(rr, sampler, target, child_seed(seed, _T_STAB, trial, d, i, 0))
        sol_a = solve_lp(problem, rep.scenarios)
        agg_gaps.append(true_gap(sol_a.x))
        n_match = rep.effective_sample_size if match_effective else rep.scenarios.n
        scen_b = sample(sampler, n_match, child_seed(seed, _T_STAB, trial, d, i, 1))
        sol_b = solve_lp(problem, scen_b)
        basic_gaps.append(true_gap(sol_b.x))
    return basic_gaps, agg_gaps


# ---------------------------------------------------------------------------
# reduction error


def run_reduction_error(config: dict, seed: int, out: Path, jobs: int = 1) -> list[Path]:
    """Error induced by aggregation reduction, plus reduced proportions."""
    dims = [int(v) for v in config.get("dimensions", [5])]
    trials = int(config.get("trials", 1))
    ns = [int(v) for v in config.get("sizes", [100, 200, 500])]
    betas = [float(v) for v in config.get("betas", [0.95, 0.99])]
    nsets = int(config.get("sets", 30))
    quota = float(config.get("quota", 1.0))
    universe = _universe(config, seed)
    fam = _FAMILY_TAG[config.get("family", "normal")]
    meta = header_lines(config, seed)

    specs = [(config, seed, trial, d, ns, betas, nsets, quota, universe)
             for d in dims for trial in range(trials)]
    results = dict(zip([(s[3], s[2]) for s in specs], _run_cells(_reduction_cell, specs, jobs)))

    paths = []
    for d in dims:
        columns = ["trial"] + [f"n{n}_b{b:g}" for n in ns for b in betas]
        err_rows, prop_rows = [], []
        for t in range(trials):
            errors, props = results[(d, t)]
            err_rows.append([t + 1] + errors)
            prop_rows.append([t + 1] + props)
        p1 = out / f"reduction-error-{fam}_{d}.csv"
        p2 = out / f"reduction-proportion-{fam}_{d}.csv"
        write_table(p1, meta, columns, err_rows)
        write_table(p2, meta, columns, prop_rows)
        paths.extend([p1, p2])
    return paths


def _reduction_cell(spec):
    config, seed, trial, d, ns, betas, nsets, quota, universe = spec
    dist = _trial_distribution(config, seed, trial, d, universe)
    region = _quota_region(d, quota)
    mean_errors, mean_props = [], []
    for ni, n in enumerate(ns):
        for bi, beta in enumerate(betas):
            problem = PortfolioProblem(region, beta, mu=dist.mu, mode=P1)
            rr = RiskRegion(dist, conic_hull(region), beta)
            errs, props = [], []
            for i in range(nsets):
                scen = sample(dist, n, child_seed(seed, _T_RED, trial, d, ni, bi, i))
                original = solve_lp(problem, scen)
                reduced_set = aggregation_reduction(rr, scen)
                reduced = solve_lp(problem, reduced_set)
                errs.append(discrete_cvar(scen, reduced.x, beta) - original.objective)
                removed = scen.n - reduced_set.n + 1 if reduced_set.n < scen.n else 0
                props.append(removed / scen.n)
            mean_errors.append(float(np.mean(errs)))
            mean_props.append(float(np.mean(props)))
    return mean_errors, mean_props


# ---------------------------------------------------------------------------
# case study


def run_case_study(config: dict, seed: int, out: Path, jobs: int = 1) -> list[Path]:
    """Cardinality case study across the three SAA modes.

    Emits per-mode iteration histories (JSONL), the best-gap and non-risk
    probability series, final out-of-sample box-plot data on a shared
    validation sample, and a summary table.
    """
    src = config.get("source", {})
    if "scenario_csv" in src:
        scen = load_scenarios(src["scenario_csv"])
    elif "synthetic_skewed" in src:
        opts = src["synthetic_skewed"]
        scen = skewed_scenarios(int(opts.get("d", 12)), int(opts.get("n", 3000)),
                                child_seed(seed, _T_CASE, 0))
    else:
        raise ConfigError("case study needs source.scenario_csv or source.synthetic_skewed")
    d = scen.d
    l = int(config.get("max_assets", 4))
    if d > 15 or l > 5:
        raise ConfigError("case study is desk-scale: d <= 15 and max_assets <= 5")
    beta = float(config.get("beta", 0.99))
    quota = float(config.get("quota", 1.0))
    modes = config.get("modes", list(MODES))
    saa_over = dict(config.get("saa", {}))
    source = EmpiricalDistribution(scen)
    surrogate = fit_from_returns(scen.points, config.get("surrogate_family", "student-t"),
                                 nu=float(config.get("surrogate_nu", 4.0)),
                                 weights=scen.probs)
    region = _quota_region(d, quota)
    problem = PortfolioProblem(region, beta, mu=source.mean, mode=P1,
                               cardinality=Cardinality(l))
    meta = header_lines(config, seed)

    hist_meta = {"generator": f"riskscen {git_describe()}", "rng": GENERATOR_NAME,
                 "seed": int(seed), "config_hash": config_hash(config)}
    results = {}
    for mode in modes:
        cfg = SaaConfig(mode=mode, **saa_over)
        best, history = run_saa(problem, source, cfg, child_seed(seed, _T_CASE, 1),
                                surrogate=surrogate)
        results[mode] = (best, history)
        hist_path = out / f"case-history-{mode}.jsonl"
        write_history(history, hist_path, meta=hist_meta)

    validation = sample(source, int(saa_over.get("validation_n", 100_000)),
                        child_seed(seed, _T_VAL))
    iters = max(len(h) for _, h in results.values())
    gap_rows = []
    prob_rows = []
    for it in range(iters):
        row = [it + 1]
        prow = [it + 1]
        for mode in modes:
            history = results[mode][1]
            if it < len(history):
                row.append(float(np.min(history[it].gaps)))
                prow.append(history[it].nonrisk_prob if history[it].nonrisk_prob is not None else "")
            else:
                row.append("")
                prow.append("")
        gap_rows.append(row)
        prob_rows.append(prow)
    box_rows = []
    summary_rows = []
    for mode in modes:
        best, history = results[mode]
        final = history[-1]
        oos = [discrete_cvar(validation, x, beta) for x in final.solutions]
        box_rows.extend([[mode, m + 1, v] for m, v in enumerate(oos)])
        summary_rows.append([mode, float(np.median(oos)), float(np.min(oos)),
                             best.cvar, len(history), final.n])

    paths = []
    for name, cols, rows in (
        ("case-gap.csv", ["iteration"] + [f"gap_{m}" for m in modes], gap_rows),
        ("case-prob.csv", ["iteration"] + [f"prob_{m}" for m in modes], prob_rows),
        ("case-boxplot.csv", ["mode", "replication", "oos_cvar"], box_rows),
        ("case-summary.csv",
         ["mode", "median_final_oos", "best_final_oos", "screened_oos", "iterations", "final_n"],
         summary_rows),
    ):
        path = out / name
        write_table(path, meta, cols, rows)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# ad-hoc debugging commands


def _points_from(config: dict, d: int) -> np.ndarray:
    """The config's points, one row of d coordinates each."""
    if "points" in config:
        pts = np.atleast_2d(np.asarray(config["points"], dtype=float))
    elif "points_csv" in config:
        path = Path(config["points_csv"])
        rows = []
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([float(v) for v in line.split(",")])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not rows:
            raise ConfigError(f"{path}: no points")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ConfigError(f"{path}: inconsistent row widths {sorted(widths)}")
        pts = np.asarray(rows)
    else:
        raise ConfigError("need 'points' or 'points_csv'")
    if pts.shape[1] != d:
        raise ConfigError(f"points have {pts.shape[1]} coordinates, the cone has {d}")
    return pts


def _cone_from(config: dict) -> Cone:
    if "cone" in config:
        return Cone(
            int(config["cone"]["d"]),
            config["cone"].get("generators"),
            config["cone"].get("facets"),
        )
    if "region" in config:
        return conic_hull(FeasibleRegion.from_dict(config["region"]))
    raise ConfigError("need 'cone' or 'region'")


def run_project(config: dict, seed: int, out: Path) -> str:
    cone = _cone_from(config)
    pts = _points_from(config, cone.d)
    lines = []
    for y in pts:
        t0 = time.perf_counter()
        p = project(cone, y)
        dt = time.perf_counter() - t0
        lines.append(f"point {np.array2string(y, precision=8)} -> projection "
                     f"{np.array2string(p, precision=8)} |p|={np.linalg.norm(p):.8g} "
                     f"({dt * 1e3:.2f} ms)")
    return "\n".join(lines)


def run_classify(config: dict, seed: int, out: Path) -> str:
    cone = _cone_from(config)
    dspec = config.get("distribution")
    if dspec is None:
        raise ConfigError("classify needs a 'distribution' entry")
    if "returns_csv" in dspec:
        dist = fit_from_returns(dspec["returns_csv"], dspec.get("family", "normal"),
                                nu=float(dspec.get("nu", 4.0)))
    else:
        dist = EllipticalDistribution(dspec.get("family", "normal"),
                                      np.asarray(dspec["mu"], dtype=float),
                                      np.asarray(dspec["factor"], dtype=float),
                                      dspec.get("nu"))
    beta = float(config.get("beta", 0.95))
    region = RiskRegion(dist, cone, beta)
    pts = _points_from(config, cone.d)
    lines = [f"threshold q_beta = {region.threshold:.8g}"]
    for y in pts:
        if not np.all(np.isfinite(y)):
            raise ConfigError("membership test needs a finite point")
        t0 = time.perf_counter()
        norm = region.projection_norm(y)  # one projection gives the verdict and the printed norm
        dt = time.perf_counter() - t0
        flag = norm >= region.threshold - BOUNDARY_TOL  # the test is_risk makes
        lines.append(f"point {np.array2string(y, precision=8)} -> "
                     f"{'risk' if flag else 'non-risk'} "
                     f"(|w|={norm:.8g}, {dt * 1e3:.2f} ms)")
    return "\n".join(lines)
