"""Experiment drivers behind the CLI: desk-scale reproductions.

Each driver reads its whole JSON config before any work, so a missing,
malformed or unknown key raises ConfigError and leaves no output behind. It
then derives every random stream from the master seed and writes CSV tables
(rows = trials, labeled columns) whose numeric content is byte-identical
across reruns of the same (config, seed). Output files start with comment
lines carrying the run's provenance: generator version, rng, master seed and
a hash of the config. The grid drivers run one independent cell per
(dimension, trial); cells take plain values, not the config, so they can fan
out over worker processes. Files are written atomically.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .cones import Cone, ConeProjector, FeasibleRegion, conic_hull
from .cvar_opt import (P1, Cardinality, PortfolioProblem, discrete_cvar,
                       solve_exact_elliptical, solve_lp)
from .distributions import (EllipticalDistribution, EmpiricalDistribution, ScenarioSet,
                            atomic_write, fit_from_returns, load_returns_csv, load_scenarios,
                            portfolio_loss_stats, read_csv, sample)
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


def provenance(config: dict, seed: int) -> dict:
    """Generator version, rng, master seed and config hash of one run."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {"generator": f"riskscen {git_describe()}", "rng": GENERATOR_NAME,
            "seed": int(seed), "config_hash": hashlib.sha256(canon.encode()).hexdigest()}


class _Recording:
    """A view of a config object that records the keys read through it.

    Each object read through a view, inside lists too, is handed out as a
    view of its own with a dotted path, and every view joins `views`.
    """

    def __init__(self, config: dict, path: str = "", views: list | None = None):
        self.config, self.path, self.read = config, path, {}
        self.views = [] if views is None else views
        self.views.append(self)

    def _view(self, value, path: str):
        if isinstance(value, dict):
            return _Recording(value, path + ".", self.views)
        if isinstance(value, list):
            return [self._view(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return value

    def __getitem__(self, key):
        if key not in self.read:
            self.read[key] = self._view(self.config[key], self.path + key)
        return self.read[key]

    def get(self, key, default=None):
        return self[key] if key in self.config else default

    def __contains__(self, key):
        return key in self.config

    def keys(self):
        return self.config.keys()


@contextmanager
def _reading(what: str, config: dict):
    """Report a missing or malformed config value as ConfigError.

    Wrap only lookups and conversions of config values, never package
    computations, so a program fault is never reported as a config error.
    A list or number where the config needs an object raises AttributeError
    at its first .get. The block reads `config` through the view this
    yields, and a key the block did not read, at any depth, raises
    ConfigError naming its path when the block ends.
    """
    view = _Recording(config)
    try:
        yield view
    except KeyError as exc:
        raise ConfigError(f"{what}: {exc} is missing or unknown") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    unread = [v.path + key for v in view.views for key in v.config if key not in v.read]
    if unread:
        raise ConfigError(f"{what}: unknown key {', '.join(map(repr, unread))}")


def write_table(path: Path, prov: dict, columns: list[str], rows: list[list]) -> None:
    lines = [f"# {key.replace('_', '-')}: {value}" for key, value in prov.items()]
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


def _grid(cell, jobs: int, *axes) -> dict:
    """{key: cell(*key)} for every key in the product of `axes`, on up to `jobs` processes."""
    keys = list(product(*axes))
    if jobs <= 1 or len(keys) <= 1:
        return {key: cell(*key) for key in keys}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return dict(zip(keys, pool.map(cell, *zip(*keys))))


# ---------------------------------------------------------------------------
# distribution sources


def _universe_loader(src: dict, dims: list[int], seed: int):
    """The call that builds the (tickers, return matrix) universe a 'source' entry names.

    Trials fit their distributions to column subsets of this universe.
    """
    if "returns_csv" in src:
        return partial(load_returns_csv, src["returns_csv"])
    if "synthetic" in src:
        opts = src["synthetic"] or {}
        width = int(opts.get("universe", max(30, 3 * max(dims))))
        months = int(opts.get("months", 240))
        return partial(synthetic_returns, width, months, child_seed(seed, _T_SUBSET, 0))
    raise ConfigError("source must provide 'returns_csv' or 'synthetic'")


def _trial_columns(seed: int, trial: int, d: int, width: int) -> np.ndarray:
    rng = rng_from(child_seed(seed, _T_SUBSET, trial, d))
    return np.sort(rng.choice(width, size=d, replace=False))


def _trial_distribution(universe, family: str, nu: float, seed: int, d: int,
                        trial: int) -> EllipticalDistribution:
    _, returns = universe
    if returns.shape[1] < d:
        raise ConfigError(f"universe has {returns.shape[1]} assets, trial needs {d}")
    cols = _trial_columns(seed, trial, d, returns.shape[1])
    return fit_from_returns(returns[:, cols], family, nu=nu)


def _quota_region(d: int, quota: float, capital: float = 1.0) -> FeasibleRegion:
    if d * quota < capital - 1e-12:
        raise ConfigError(f"quota {quota} with d={d} cannot reach the budget; infeasible")
    return FeasibleRegion(d, capital, upper=np.full(d, min(quota, capital)))


# ---------------------------------------------------------------------------
# prob-table


def run_prob_table(config: dict, seed: int, out: Path, jobs: int = 1) -> list[Path]:
    """Monte Carlo non-risk probabilities over (trial, quota, beta) grids."""
    with _reading("prob-table config", config) as cfg:
        dims = [int(v) for v in cfg.get("dimensions", [5])]
        betas = [float(v) for v in cfg.get("betas", [0.95, 0.99])]
        quotas = [float(v) for v in cfg.get("quotas", [1.0])]
        trials = int(cfg.get("trials", 5))
        n_points = int(cfg.get("n_points", 2000))
        family = cfg.get("family", "normal")
        fam = _FAMILY_TAG[family]
        nu = float(cfg.get("nu", 4.0))
        load_universe = _universe_loader(cfg.get("source", {"synthetic": {}}), dims, seed)
    for d in dims:
        for q in quotas:
            _quota_region(d, q)  # validate feasibility up front
    prov = provenance(config, seed)
    cell = partial(_prob_cell, load_universe(), family, nu, seed, betas, quotas, n_points)
    results = _grid(cell, jobs, dims, range(trials))

    paths = []
    for d in dims:
        columns = ["trial"] + [f"q{q:g}_b{b:g}" for q in quotas for b in betas]
        rows = [[t + 1] + results[(d, t)] for t in range(trials)]
        path = out / f"prob-table-{fam}_{d}.csv"
        write_table(path, prov, columns, rows)
        paths.append(path)
    return paths


def _prob_cell(universe, family, nu, seed, betas, quotas, n_points, d, trial):
    dist = _trial_distribution(universe, family, nu, seed, d, trial)
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
    with _reading("stability config", config) as cfg:
        nsets = int(cfg.get("sets", 50))
        beta = float(cfg.get("beta", 0.95))
        target = int(cfg.get("n_risk_target", 100))
        match_effective = bool(cfg.get("match_effective", False))
        quota = float(cfg.get("quota", 1.0))
        override = cfg.get("threshold_override")
        threshold = None if override is None else float(override)
        nu = float(cfg.get("nu", 4.0))
        reference_n = int(cfg.get("reference_n", 200_000))
        src = cfg.get("source", {"synthetic": {}})
        empirical = "scenario_csv" in src
        if empirical:
            scenario_csv = src["scenario_csv"]
            family = cfg.get("family", "student-t")
        else:
            dims = [int(v) for v in cfg.get("dimensions", [10])]
            trials = int(cfg.get("trials", 1))
            family = cfg.get("family", "normal")
            fam = _FAMILY_TAG[family]
            load_universe = _universe_loader(src, dims, seed)
    if empirical:
        source = load_scenarios(scenario_csv)
        dims, trials, fam = [source.d], 1, "empirical"
    else:
        source = load_universe()
    prov = provenance(config, seed)
    cell = partial(_stability_cell, source, family, nu, seed, beta, target, nsets,
                   match_effective, quota, threshold, reference_n)
    results = _grid(cell, jobs, dims, range(trials))

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
        write_table(path, prov, columns, rows)
        plot = out / f"stability-gaps-{fam}_{d}.csv"
        write_table(plot, prov, ["trial", "set", "method", "gap"], gap_rows)
        paths.extend([path, plot])
    return paths


def _stability_cell(source, family, nu, seed, beta, target, nsets, match_effective, quota,
                    threshold, reference_n, d, trial):
    """Both methods' true gaps; `source` is the return universe or an empirical ScenarioSet."""
    empirical = isinstance(source, ScenarioSet)
    if empirical:
        # empirical source: resample the file, grade against a large reference set
        sampler = EmpiricalDistribution(source)
        region_dist = fit_from_returns(source.points, family, nu=nu, weights=source.probs)
        mu = sampler.mean
    else:
        sampler = region_dist = _trial_distribution(source, family, nu, seed, d, trial)
        mu = region_dist.mu
    region = _quota_region(d, quota)
    problem = PortfolioProblem(region, beta, mu=mu, mode=P1)
    rr = RiskRegion(region_dist, conic_hull(region), beta, threshold=threshold)

    if empirical:
        reference = sample(sampler, reference_n, child_seed(seed, _T_STAB, trial, d, 10**6))
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
    with _reading("reduction-error config", config) as cfg:
        dims = [int(v) for v in cfg.get("dimensions", [5])]
        trials = int(cfg.get("trials", 1))
        ns = [int(v) for v in cfg.get("sizes", [100, 200, 500])]
        betas = [float(v) for v in cfg.get("betas", [0.95, 0.99])]
        nsets = int(cfg.get("sets", 30))
        quota = float(cfg.get("quota", 1.0))
        family = cfg.get("family", "normal")
        fam = _FAMILY_TAG[family]
        nu = float(cfg.get("nu", 4.0))
        load_universe = _universe_loader(cfg.get("source", {"synthetic": {}}), dims, seed)
    prov = provenance(config, seed)
    cell = partial(_reduction_cell, load_universe(), family, nu, seed, ns, betas, nsets, quota)
    results = _grid(cell, jobs, dims, range(trials))

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
        write_table(p1, prov, columns, err_rows)
        write_table(p2, prov, columns, prop_rows)
        paths.extend([p1, p2])
    return paths


def _reduction_cell(universe, family, nu, seed, ns, betas, nsets, quota, d, trial):
    dist = _trial_distribution(universe, family, nu, seed, d, trial)
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
    with _reading("case-study config", config) as cfg:
        src = cfg.get("source", {})
        if "scenario_csv" in src:
            load_scenario_set = partial(load_scenarios, src["scenario_csv"])
        elif "synthetic_skewed" in src:
            opts = src["synthetic_skewed"]
            load_scenario_set = partial(skewed_scenarios, int(opts.get("d", 12)),
                                        int(opts.get("n", 3000)), child_seed(seed, _T_CASE, 0))
        else:
            raise ConfigError("case study needs source.scenario_csv or source.synthetic_skewed")
        l = int(cfg.get("max_assets", 4))
        beta = float(cfg.get("beta", 0.99))
        quota = float(cfg.get("quota", 1.0))
        modes = cfg.get("modes", list(MODES))
        if not modes:
            raise ConfigError("case study needs at least one mode")
        saa_over = dict(cfg.get("saa", {}))
        saa_configs = [SaaConfig(mode=mode, **saa_over) for mode in modes]
        surrogate_family = cfg.get("surrogate_family", "student-t")
        surrogate_nu = float(cfg.get("surrogate_nu", 4.0))
    scen = load_scenario_set()
    d = scen.d
    if d > 15 or l > 5:
        raise ConfigError("case study is desk-scale: d <= 15 and max_assets <= 5")
    source = EmpiricalDistribution(scen)
    surrogate = fit_from_returns(scen.points, surrogate_family, nu=surrogate_nu,
                                 weights=scen.probs)
    region = _quota_region(d, quota)
    problem = PortfolioProblem(region, beta, mu=source.mean, mode=P1,
                               cardinality=Cardinality(l))
    prov = provenance(config, seed)

    runs = _grid(partial(run_saa, problem, source, seed=child_seed(seed, _T_CASE, 1),
                         surrogate=surrogate), jobs, saa_configs)
    results = {mode: runs[(cfg,)] for mode, cfg in zip(modes, saa_configs)}
    for mode, (_, history) in results.items():
        write_history(history, out / f"case-history-{mode}.jsonl", meta=prov)

    validation = sample(source, saa_configs[0].validation_n, child_seed(seed, _T_VAL))
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
        write_table(path, prov, cols, rows)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# ad-hoc debugging commands


def _points_from(config: dict, d: int) -> np.ndarray:
    """The config's points, one row of d coordinates each."""
    if "points" in config:
        pts = np.atleast_2d(np.asarray(config["points"], dtype=float))
    elif "points_csv" in config:
        _, pts = read_csv(config["points_csv"], header=False)
    else:
        raise ConfigError("need 'points' or 'points_csv'")
    if pts.shape[1] != d:
        raise ConfigError(f"points have {pts.shape[1]} coordinates, the cone has {d}")
    return pts


def _cone_from(config: dict) -> Cone:
    if "cone" in config:
        return Cone.from_dict(config["cone"])
    if "region" in config:
        return conic_hull(FeasibleRegion.from_dict(config["region"]))
    raise ConfigError("need 'cone' or 'region'")


def run_project(config: dict, seed: int, out: Path) -> str:
    with _reading("project config", config) as cfg:
        cone = _cone_from(cfg)
        pts = _points_from(cfg, cone.d)
    lines = []
    for y in pts:
        t0 = time.perf_counter()
        p = ConeProjector(cone).project(y)
        dt = time.perf_counter() - t0
        lines.append(f"point {np.array2string(y, precision=8)} -> projection "
                     f"{np.array2string(p, precision=8)} |p|={np.linalg.norm(p):.8g} "
                     f"({dt * 1e3:.2f} ms)")
    return "\n".join(lines)


def run_classify(config: dict, seed: int, out: Path) -> str:
    with _reading("classify config", config) as cfg:
        cone = _cone_from(cfg)
        pts = _points_from(cfg, cone.d)
        dspec = cfg["distribution"]
        family = dspec.get("family", "normal")
        returns_csv = dspec.get("returns_csv")
        if returns_csv is None:
            mu = np.asarray(dspec["mu"], dtype=float)
            factor = np.asarray(dspec["factor"], dtype=float)
            nu = None if dspec.get("nu") is None else float(dspec["nu"])
        else:
            nu = float(dspec.get("nu", 4.0))
        beta = float(cfg.get("beta", 0.95))
    if returns_csv is None:
        dist = EllipticalDistribution(family, mu, factor, nu)
    else:
        dist = fit_from_returns(returns_csv, family, nu=nu)
    region = RiskRegion(dist, cone, beta)
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
