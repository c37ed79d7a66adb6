"""Sample-average-approximation driver with optimality-gap estimation.

Each iteration solves M replicated scenario problems, cross-evaluates every
candidate on every replication set to estimate its optimality gap, and (in
ghost mode) tightens an artificial box around the replication solutions.
Tighter boxes shrink the feasible set's conic hull, which grows the
non-risk region and makes aggregation sampling cheaper and sharper. Ghost
bounds only ever tighten, and they never relax the original constraints, so
every candidate stays feasible for the true problem. The final answer is
the candidate of lowest exact CVaR under the source. Each aggregating
replication draws until it holds n risk scenarios, so an iteration's pooled
draw counts are one inverse binomial sample: sum(n_nonrisk) /
(sum(effective_sample_size) - 1) estimates the region's non-risk probability
without bias (Haldane, Biometrika 33 (1945) 222-225). A replication that met no
non-risk draw counts its fresh final point as one (see AggSampleReport).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .cones import FeasibleRegion, conic_hull
from .cvar_opt import (PortfolioProblem, _risk, _solution, _support_reaches_budget,
                       evaluate_objective, solve_cardinality, solve_lp)
from .distributions import (EllipticalDistribution, EmpiricalDistribution, atomic_write,
                            fit_from_returns, normal_quantile, sample)
from .errors import ConfigError, SolverError
from .risk_region import RiskRegion
from .scenario_gen import aggregation_sampling
from .seeding import child_seed

BASIC = "basic-sampling"
AGGREGATION = "aggregation"
AGGREGATION_GHOST = "aggregation+ghost"
MODES = (BASIC, AGGREGATION, AGGREGATION_GHOST)

_T_SAMPLE = 1  # child-seed stream tag


@dataclass(frozen=True)
class SaaConfig:
    n0: int = 200
    dn: int = 100
    replications: int = 10
    alpha_gap: float = 0.95
    alpha_ghost: float = 0.99
    validation_n: int = 100_000  # unread since the pick is exact; goes with ROADMAP item 3, step 0
    gap_tol: float = 1e-4
    var_tol: float = 1e-4
    max_iterations: int = 8
    mode: str = BASIC
    prob_estimate_n: int = 2000  # accepted and unread (draws estimate it), like validation_n

    def __post_init__(self):
        if min(self.n0, self.validation_n, self.prob_estimate_n) < 1 or self.dn < 0:
            raise ConfigError("sample sizes must be positive")
        if self.replications < 2:
            raise ConfigError("need at least two replications")
        if self.max_iterations < 1:
            raise ConfigError("need at least one iteration")
        if not 0.5 < self.alpha_gap < 1.0 or not 0.5 < self.alpha_ghost < 1.0:
            raise ConfigError("confidence levels must be in (0.5, 1)")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")


@dataclass
class SaaState:
    """One Algorithm-2 iteration: bounds, replication results, gap estimates and
    the non-risk probability its draws estimate (module docstring; None in basic sampling)."""

    iteration: int
    n: int
    lower: np.ndarray
    upper: np.ndarray
    nu: list[float]
    solutions: list[np.ndarray]
    supports: list
    g_values: np.ndarray  # (M, M) candidate evaluations across sets
    gaps: np.ndarray
    ci_halfwidths: np.ndarray
    nonrisk_prob: float | None
    seeds: list[int]
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "n": self.n,
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "nu": [float(v) for v in self.nu],
            "solutions": [s.tolist() for s in self.solutions],
            "supports": [None if z is None else [int(v) for v in z] for z in self.supports],
            "gaps": self.gaps.tolist(),
            "ci_halfwidths": self.ci_halfwidths.tolist(),
            "nonrisk_prob": self.nonrisk_prob,
            "seeds": self.seeds,
            "elapsed": self.elapsed,
        }


def estimate_gap(nu_values, g_values, alpha: float = 0.95):
    """Gap and CI half-width per candidate from M replications.

    nu_values[m] is the m-th replication optimum; g_values[m, k] is
    candidate k evaluated on set m. gap_k = mean_m g[m,k] - mean_m nu[m]
    (clipped at zero for reporting); the half-width uses the sample standard
    deviation of the per-replication differences over sqrt(M).
    """
    nu = np.asarray(nu_values, dtype=float)
    g = np.atleast_2d(np.asarray(g_values, dtype=float))
    if nu.size < 2:
        raise ConfigError("gap estimation needs at least two replications")
    if not 0.5 < alpha < 1.0:
        raise ConfigError("confidence level must be in (0.5, 1)")
    m = nu.size
    diffs = g - nu[:, None]
    gaps = np.maximum(diffs.mean(axis=0), 0.0)
    spread = diffs.std(axis=0, ddof=1)
    half = normal_quantile(alpha) * spread / np.sqrt(m)
    return gaps, half


def update_ghost_bounds(solutions, alpha: float, region: FeasibleRegion,
                        lower, upper, cardinality=None):
    """Confidence box around the replication solutions, clamped and tightened.

    l = max(xbar - z sigma/sqrt(M), 0) and u = min(xbar + z sigma/sqrt(M),
    quota), then intersected with the incoming bounds so ghost boxes only
    shrink. Replication solutions that agree to rounding collapse the box,
    and the intersection can then cross (l > u) by rounding; crossings up to
    1e-12 close at min(l, incoming upper), inside the incoming box. If the box
    kills feasibility the level is widened once (alpha <- (1+alpha)/2); a
    second failure is an error.
    """
    if not 0.5 < alpha < 1.0:  # below 0.5, z < 0 and the box comes out inverted
        raise ConfigError("confidence level must be in (0.5, 1)")
    X = np.atleast_2d(np.asarray(solutions, dtype=float))
    m = X.shape[0]
    xbar = X.mean(axis=0)
    sigma = X.std(axis=0, ddof=1) if m > 1 else np.zeros(X.shape[1])
    lo, hi = np.maximum(lower, region.lower), np.minimum(upper, region.upper)
    for attempt in range(2):
        z = normal_quantile(alpha)
        l = np.maximum(xbar - z * sigma / np.sqrt(m), lo)
        u = np.minimum(xbar + z * sigma / np.sqrt(m), hi)
        crossed = (l > u) & (l - u <= 1e-12)
        l, u = np.where(crossed, np.minimum(l, hi), [l, u])
        if _bounds_feasible(region, l, u, cardinality):
            return l, u
        alpha = (1.0 + alpha) / 2.0
    raise SolverError("ghost bounds infeasible even after widening")


def _bounds_feasible(region: FeasibleRegion, l, u, cardinality) -> bool:
    try:
        boxed = region.with_bounds(l, u)
    except ConfigError:
        return False
    return cardinality is None or _support_reaches_budget(boxed, cardinality.max_assets)


def run_saa(problem: PortfolioProblem, source, config: SaaConfig, seed: int,
            surrogate: EllipticalDistribution | None = None):
    """Run the SAA loop and return (the pick, history).

    `source` supplies the scenario draws (elliptical or empirical); in
    aggregation modes the risk region uses `surrogate` when given, otherwise
    the source itself (elliptical) or a moment-fitted t(4) stand-in
    (empirical). The pick has the lowest exact CVaR under `source` of all
    candidates. Fixed (config, seed) fix both bit-for-bit, timings aside.
    """
    if not isinstance(source, (EllipticalDistribution, EmpiricalDistribution)):
        raise ConfigError("SAA needs an elliptical or empirical distribution source")
    region0 = problem.region
    lower = region0.lower.copy()
    upper = region0.upper.copy()
    n = config.n0
    history: list[SaaState] = []
    aggregating = config.mode in (AGGREGATION, AGGREGATION_GHOST)
    if aggregating and surrogate is None:
        surrogate = source if isinstance(source, EllipticalDistribution) else fit_from_returns(
            source.scenarios.points, "student-t", nu=4.0, weights=source.scenarios.probs)

    # the problem on the current box and its risk region, rebuilt only when a ghost box lands
    problem_t = problem
    rr = RiskRegion(surrogate, conic_hull(region0), problem.beta) if aggregating else None
    for it in range(config.max_iterations):
        t0 = time.perf_counter()
        nu, xs, zs, seeds, sets, reports = [], [], [], [], [], []
        for m in range(config.replications):
            s_m = child_seed(seed, _T_SAMPLE, it, m)
            if aggregating:
                reports.append(aggregation_sampling(rr, source, n, s_m))
                scen = reports[-1].scenarios
            else:
                scen = sample(source, n, s_m)
            sol = (solve_cardinality(problem_t, scen)
                   if problem.cardinality is not None else solve_lp(problem_t, scen))
            if sol.status != "optimal":
                raise SolverError(f"replication {m} at iteration {it}: {sol.status}")
            nu.append(sol.objective)
            xs.append(sol.x)
            zs.append(sol.z)
            seeds.append(s_m)
            sets.append(scen)

        g = np.array([[evaluate_objective(problem, scen, x) for x in xs] for scen in sets])
        gaps, half = estimate_gap(nu, g, config.alpha_gap)
        prob_est = (sum(r.n_nonrisk for r in reports)
                    / (sum(r.effective_sample_size for r in reports) - 1) if aggregating else None)
        state = SaaState(it, n, lower.copy(), upper.copy(), nu, xs, zs, g, gaps, half,
                         prob_est, seeds, elapsed=time.perf_counter() - t0)
        history.append(state)

        best = int(np.argmin(gaps))
        if gaps[best] <= config.gap_tol and half[best] <= config.var_tol:
            break
        n += config.dn
        if config.mode == AGGREGATION_GHOST and it + 1 < config.max_iterations:
            lower, upper = update_ghost_bounds(xs, config.alpha_ghost, region0,
                                               lower, upper, problem.cardinality)
            problem_t = replace(problem, region=region0.with_bounds(lower, upper))
            rr = RiskRegion(surrogate, conic_hull(problem_t.region), problem.beta)

    return _screen_candidates(problem, source, history), history


def _screen_candidates(problem, source, history):
    """The candidate of lowest exact CVaR under `source`, ties by lower exact VaR."""
    risk = _risk(source, problem.beta)
    tails = [(risk(x)[1::-1], x, z)  # ((CVaR, VaR), x, z)
             for state in history for x, z in zip(state.solutions, state.supports)]
    (cvar, _), x, z = min(tails, key=lambda t: t[0])
    return _solution(problem, x, cvar, z)


def write_history(history, path, meta: dict | None = None) -> None:
    """One JSON record per iteration (includes wall-clock timings).

    An optional metadata record (generator version, seed, config hash) is
    written first.
    """
    records = ([] if meta is None else [{"meta": meta}]) + [state.to_dict() for state in history]
    atomic_write(path, "".join(json.dumps(record) + "\n" for record in records))
