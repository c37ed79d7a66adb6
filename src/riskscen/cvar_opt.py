"""Scenario-based CVaR portfolio optimization.

Three solve paths share one problem object: the Rockafellar-Uryasev LP on a
scenario set (embedded simplex), an exact solver for elliptical returns
(the loss is ||P x|| X_1 - x'mu, so the true CVaR objective is convex and
available in closed form; it is minimized by a 1-D search along the
efficient frontier, each point one polytope projection), and a best-first
branch-and-bound for cardinality-restricted supports. Discrete CVaR uses
exact atom splitting at the beta-quantile.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np

from . import lp
from .cones import FeasibleRegion, project_polytope
from .distributions import EllipticalDistribution, ScenarioSet
from .errors import ConfigError, SolverError

P1 = "P1"  # min CVaR subject to a target expected return
P3 = "P3"  # min lam*CVaR + (1-lam)*(-expected return)

_TIE_BREAK = 1e-12


@dataclass(frozen=True)
class Cardinality:
    """At most `max_assets` nonzero positions, each capped at `caps`."""

    max_assets: int
    caps: np.ndarray | None = None


@dataclass(frozen=True)
class PortfolioProblem:
    region: FeasibleRegion
    beta: float
    mu: np.ndarray  # mean of the input distribution, not of any scenario set
    mode: str = P1
    tau: float = None  # P1 target return; defaults to mean(mu)
    lam: float = 1.0  # P3 trade-off weight
    cardinality: Cardinality | None = None

    def __post_init__(self):
        if self.mode not in (P1, P3):
            raise ConfigError(f"unknown objective mode {self.mode!r}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must be in (0, 1)")
        mu = np.asarray(self.mu, dtype=float)
        if mu.size != self.region.d:
            raise ConfigError("mean vector does not match the region dimension")
        object.__setattr__(self, "mu", mu)
        if self.mode == P1:
            tau = float(np.mean(mu)) if self.tau is None else float(self.tau)
            if mu.max() < tau:
                raise ConfigError("target return exceeds every asset mean; P1 infeasible")
            object.__setattr__(self, "tau", tau)
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        if self.cardinality is not None:
            card = self.cardinality
            if card.max_assets < 1:
                raise ConfigError("cardinality limit must be >= 1")
            caps = self.region.upper.copy() if card.caps is None else (
                np.asarray(card.caps, dtype=float) + np.zeros(self.region.d))
            object.__setattr__(self, "cardinality", Cardinality(int(card.max_assets), caps))

    @property
    def d(self) -> int:
        return self.region.d


@dataclass(frozen=True)
class Solution:
    x: np.ndarray | None
    objective: float
    cvar: float
    expected_return: float
    status: str  # optimal | infeasible | iteration-limit
    z: np.ndarray | None = None
    seed: int | None = None
    scenario_count: int | None = None
    lp_objective: float | None = None  # raw optimum of the auxiliary LP, when one was solved

    def to_json(self) -> str:
        doc = {
            "x": None if self.x is None else [float(v) for v in self.x],
            "objective": None if self.objective is None else float(self.objective),
            "cvar": None if self.cvar is None else float(self.cvar),
            "expected_return": None if self.expected_return is None else float(self.expected_return),
            "status": self.status,
            "seed": self.seed,
            "scenario_count": self.scenario_count,
        }
        if self.z is not None:
            doc["z"] = [int(v) for v in self.z]
        return json.dumps(doc)


def _loss_var(losses: np.ndarray, probs: np.ndarray, beta: float) -> float:
    """beta-quantile (VaR) of a weighted discrete loss vector."""
    order = np.argsort(losses, kind="stable")
    cum = np.cumsum(probs[order])
    idx = min(int(np.searchsorted(cum, beta - 1e-12)), losses.size - 1)
    return float(losses[order[idx]])


def discrete_cvar(scenarios: ScenarioSet, x, beta: float) -> float:
    """Exact beta-CVaR of the loss -x'y over a weighted discrete set.

    Splits the quantile atom: with V the beta-VaR,
    CVaR = (sum_{loss > V} p*loss + V*(P[loss <= V] - beta)) / (1 - beta).
    """
    losses = -(scenarios.points @ np.asarray(x, dtype=float))
    var = _loss_var(losses, scenarios.probs, beta)
    gt = losses > var
    p_le = 1.0 - scenarios.probs[gt].sum()
    tail = float(scenarios.probs[gt] @ losses[gt])
    return float((tail + var * (p_le - beta)) / (1.0 - beta))


def discrete_var(scenarios: ScenarioSet, x, beta: float) -> float:
    """beta-quantile of the discrete loss distribution."""
    losses = -(scenarios.points @ np.asarray(x, dtype=float))
    return _loss_var(losses, scenarios.probs, beta)


def evaluate_objective(problem: PortfolioProblem, scenarios: ScenarioSet, x) -> float:
    """The problem objective at x, with CVaR taken from the scenario set."""
    cvar = discrete_cvar(scenarios, x, problem.beta)
    if problem.mode == P1:
        return cvar
    ret = float(np.asarray(x) @ problem.mu)
    return problem.lam * cvar + (1.0 - problem.lam) * (-ret)


def _assemble_and_solve(problem, scenarios, upper=None, extra_row=None):
    """Build and solve the auxiliary LP; returns the raw LpResult and x slice.

    Variables are [x (d), alpha (free), u_s (n >= 0)]. `upper` overrides the
    x upper bounds (branch-and-bound fixings); `extra_row` is one additional
    (coeffs_on_x, rhs) inequality.
    """
    region = problem.region
    d, n = region.d, scenarios.n
    nvar = d + 1 + n
    beta = problem.beta
    c = np.zeros(nvar)
    c[:d] = _TIE_BREAK * np.arange(1, d + 1)
    scale = 1.0 if problem.mode == P1 else problem.lam
    c[d] += scale
    c[d + 1 :] += scale * scenarios.probs / (1.0 - beta)
    if problem.mode == P3:
        c[:d] -= (1.0 - problem.lam) * problem.mu

    rows = [np.hstack([-scenarios.points, -np.ones((n, 1)), -np.eye(n)])]
    rhs = [np.zeros(n)]
    if region.m:
        rows.append(np.hstack([region.A, np.zeros((region.m, 1 + n))]))
        rhs.append(region.b)
    if problem.mode == P1:
        r = np.zeros(nvar)
        r[:d] = -problem.mu
        rows.append(r[None, :])
        rhs.append(np.array([-problem.tau]))
    if extra_row is not None:
        coeffs, b = extra_row
        r = np.zeros(nvar)
        r[:d] = coeffs
        rows.append(r[None, :])
        rhs.append(np.array([b]))
    A_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    A_eq = np.zeros((1, nvar))
    A_eq[0, :d] = 1.0
    b_eq = np.array([region.capital])

    ub = region.upper if upper is None else np.minimum(region.upper, upper)
    bounds = [(lo, hi) for lo, hi in zip(region.lower, ub)]
    bounds.append((None, None))
    bounds.extend([(0.0, None)] * n)
    return lp.solve(c, A_ub, b_ub, A_eq, b_eq, bounds)


def _finish(problem, scenarios, x, z=None, lp_objective=None) -> Solution:
    cvar = discrete_cvar(scenarios, x, problem.beta)
    ret = float(x @ problem.mu)
    obj = cvar if problem.mode == P1 else problem.lam * cvar + (1.0 - problem.lam) * (-ret)
    return Solution(x, obj, cvar, ret, "optimal", z=z, scenario_count=scenarios.n,
                    lp_objective=lp_objective)


def solve_lp(problem: PortfolioProblem, scenarios: ScenarioSet) -> Solution:
    """Rockafellar-Uryasev LP solve of the continuous problem.

    The reported CVaR is recomputed by discrete_cvar at the optimizer, which
    agrees with the LP value to solver tolerance.
    """
    if problem.cardinality is not None:
        raise ConfigError("use solve_cardinality for problems with a support limit")
    if scenarios.n == 0:
        raise ConfigError("scenario set is empty")
    res = _assemble_and_solve(problem, scenarios)
    if res.status == "infeasible":
        return Solution(None, np.nan, np.nan, np.nan, "infeasible")
    if res.status == "unbounded":
        raise SolverError("CVaR LP is unbounded; the model is malformed")
    if res.status != "optimal":
        return Solution(None, np.nan, np.nan, np.nan, "iteration-limit")
    return _finish(problem, scenarios, res.x[: problem.d], lp_objective=res.objective)


# ---------------------------------------------------------------------------
# exact solver for elliptical returns


def _feasible_rows(problem):
    """The feasible polytope as {x : G x <= h}.

    Budget equality as an opposing row pair, the box, the region's rows and,
    for P1, the return floor mu'x >= tau.
    """
    region = problem.region
    d = region.d
    ones = np.ones(d)
    rows = [[ones], [-ones], -np.eye(d), np.eye(d), region.A]
    rhs = [[region.capital], [-region.capital], -region.lower, region.upper, region.b]
    if problem.mode == P1:
        rows.append([-problem.mu])
        rhs.append([-problem.tau])
    return np.vstack(rows), np.concatenate(rhs)


def cvar_subgradient(scenarios: ScenarioSet, x, beta: float) -> np.ndarray:
    """A subgradient of x -> discrete beta-CVaR of -x'y, with atom splitting."""
    losses = -(scenarios.points @ np.asarray(x, dtype=float))
    var = _loss_var(losses, scenarios.probs, beta)
    weights = np.where(losses > var, scenarios.probs, 0.0)
    at_var = np.isclose(losses, var)
    residual = (1.0 - beta) - weights.sum()
    mass_at_var = scenarios.probs[at_var].sum()
    if mass_at_var > 0 and residual > 0:
        weights = weights + at_var * (scenarios.probs * residual / mass_at_var)
    return -(weights @ scenarios.points) / (1.0 - beta)


def minimize_discrete_cvar(problem: PortfolioProblem, scenarios: ScenarioSet,
                           max_iter: int = 20_000) -> Solution:
    """Projected-subgradient minimizer of the scenario CVaR objective.

    Reference solver for sets too large for the dense simplex (empirical
    stability baselines): same feasible set as solve_lp, memory O(n d), no
    LP assembly. Accuracy is step-rule limited, so prefer solve_lp whenever
    the set fits.
    """
    if problem.cardinality is not None:
        raise ConfigError("reference minimizer handles continuous problems only")
    region = problem.region
    lam = 1.0 if problem.mode == P1 else problem.lam

    def fval(x):
        cvar = discrete_cvar(scenarios, x, problem.beta)
        if problem.mode == P1:
            return cvar
        return lam * cvar + (1.0 - lam) * (-float(x @ problem.mu))

    def grad(x):
        g = lam * cvar_subgradient(scenarios, x, problem.beta)
        if problem.mode == P3:
            g = g - (1.0 - lam) * problem.mu
        return g

    G, h = _feasible_rows(problem)
    x = project_polytope(np.full(region.d, region.capital / region.d), G, h)
    f_best, x_best = fval(x), x.copy()
    delta = 0.1 * (1.0 + abs(f_best))
    for it in range(max_iter):
        g = grad(x)
        f = fval(x)
        if f < f_best:
            f_best, x_best = f, x.copy()
        gg = float(g @ g)
        step = (f - (f_best - delta)) / gg if gg > 1e-300 else 0.0
        x = project_polytope(x - step * g, G, h)
        if (it + 1) % 400 == 0:
            delta = max(delta * 0.7, 1e-12 * (1.0 + abs(f_best)))
    return _finish(problem, scenarios, x_best)


def solve_exact_elliptical(problem: PortfolioProblem, dist: EllipticalDistribution) -> Solution:
    """Minimize the exact CVaR objective for elliptical returns.

    The objective is weight * ||P x|| - mu'x, with P3's lambda folded into
    the weight. With the frontier h(r) = min{||P x|| : x in X, mu'x >= r},
    convex and nondecreasing, the optimum is the 1-D convex minimum of
    weight * h(r) - r; each h(r) is one least-distance projection of the
    origin in u = P x coordinates. The search brackets r between the return
    of the minimum-risk portfolio (below it h is flat) and the LP maximum of
    mu'x over X, and narrows the bracket by golden sections to a 1e-10
    fraction of its width.
    """
    if problem.cardinality is not None:
        raise ConfigError("exact elliptical solver handles continuous problems only")
    P, mu = dist.factor, problem.mu
    weight = (1.0 if problem.mode == P1 else problem.lam) * dist.tail_cvar(problem.beta)
    G, h = _feasible_rows(problem)
    Gu = np.linalg.solve(P.T, G.T).T  # rows of G P^{-1}
    Gr = np.vstack([Gu, np.linalg.solve(P.T, -mu)])
    origin = np.zeros(problem.d)

    def objective(x):
        return weight * float(np.linalg.norm(P @ x)) - float(x @ mu)

    def frontier(r):
        """(weight * h(r) - r, the portfolio attaining h(r))."""
        u = project_polytope(origin, Gr, np.append(h, -r))
        return weight * float(np.linalg.norm(u)) - r, np.linalg.solve(P, u)

    x = np.linalg.solve(P, project_polytope(origin, Gu, h))
    top = lp.solve(-mu, G, h, bounds=[(None, None)] * problem.d)
    if top.status != "optimal":
        raise SolverError(f"return-range LP ended {top.status}")
    lo, hi = float(x @ mu), -top.objective
    if hi - lo > 1e-12 * (1.0 + abs(hi)):
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        left, right = b - golden * (b - a), a + golden * (b - a)
        f_left, f_right = frontier(left), frontier(right)
        while b - a > 1e-10 * (hi - lo):
            if f_left[0] <= f_right[0]:
                b, right, f_right = right, left, f_left
                left = b - golden * (b - a)
                f_left = frontier(left)
            else:
                a, left, f_left = left, right, f_right
                right = a + golden * (b - a)
                f_right = frontier(right)
        x = min((x, f_left[1], f_right[1]), key=objective)

    scale = float(np.linalg.norm(P @ x))
    cvar = scale * dist.tail_cvar(problem.beta) - float(x @ problem.mu)
    ret = float(x @ problem.mu)
    obj = cvar if problem.mode == P1 else problem.lam * cvar + (1.0 - problem.lam) * (-ret)
    return Solution(x, obj, cvar, ret, "optimal")


# ---------------------------------------------------------------------------
# branch and bound on the support


def solve_cardinality(problem: PortfolioProblem, scenarios: ScenarioSet,
                      node_limit: int = 100_000) -> Solution:
    """Best-first branch-and-bound for the support-limited problem.

    Nodes fix assets in (z=0) or out (z=1); the relaxation keeps fractional
    z implicitly through sum(x_j / cap_j) <= slots. Branches on the most
    fractional ratio. The support-size constraint is implemented as <=; with
    x_i <= u_i z_i and free z this has the same optimal value as equality.
    """
    card = problem.cardinality
    if card is None:
        raise ConfigError("problem has no cardinality constraint")
    region = problem.region
    d, l = region.d, card.max_assets
    caps = np.minimum(card.caps, region.upper)
    if np.sort(caps)[::-1][:l].sum() < region.capital - 1e-12:
        return Solution(None, np.nan, np.nan, np.nan, "infeasible")

    base = PortfolioProblem(region, problem.beta, problem.mu, problem.mode,
                            problem.tau, problem.lam, None)

    def relax(z0: frozenset, z1: frozenset):
        upper = caps.copy()
        for j in z0:
            upper[j] = 0.0
        free = [j for j in range(d) if j not in z0 and j not in z1 and caps[j] > 1e-12]
        slots = l - len(z1)
        extra = None
        if slots < len(free):
            coeffs = np.zeros(d)
            for j in free:
                coeffs[j] = 1.0 / caps[j]
            extra = (coeffs, float(slots))
        res = _assemble_and_solve(base, scenarios, upper=upper, extra_row=extra)
        if res.status != "optimal":
            return None, None
        return res.objective, res.x[:d]

    def support_of(x):
        return frozenset(int(j) for j in np.flatnonzero(x > 1e-9))

    def z_vector(chosen: frozenset):
        z = np.zeros(d, dtype=int)
        for j in chosen:
            z[j] = 1
        return z

    incumbent_val = np.inf
    incumbent: Solution | None = None
    counter = 0
    heap: list = []
    solves = 0

    root_bound, root_x = relax(frozenset(), frozenset())
    if root_bound is None:
        return Solution(None, np.nan, np.nan, np.nan, "infeasible")
    solves += 1

    # Greedy incumbent: restrict to the l largest relaxation positions.
    order = np.argsort(-root_x / np.maximum(caps, 1e-12))
    greedy_z1 = frozenset(int(j) for j in order[:l])
    gval, gx = relax(frozenset(range(d)) - greedy_z1, greedy_z1)
    solves += 1
    if gval is not None:
        incumbent_val = gval
        incumbent = _finish(problem, scenarios, gx, z=z_vector(support_of(gx)), lp_objective=gval)

    heapq.heappush(heap, (root_bound, counter, frozenset(), frozenset(), root_x))
    while heap:
        bound, _, z0, z1, x = heapq.heappop(heap)
        if bound >= incumbent_val - 1e-9:
            break
        sup = support_of(x)
        chosen = z1 | sup
        if len(chosen) <= l:
            if bound < incumbent_val:
                incumbent_val = bound
                incumbent = _finish(problem, scenarios, x, z=z_vector(chosen), lp_objective=bound)
            continue
        free = [j for j in sup if j not in z1]
        ratios = np.array([min(x[j] / caps[j], 1.0) for j in free])
        j_branch = free[int(np.argmax(np.minimum(ratios, 1.0 - ratios)))]
        for child_z0, child_z1 in (((z0 | {j_branch}), z1), (z0, z1 | {j_branch})):
            if len(child_z1) > l:
                continue
            val, cx = relax(child_z0, child_z1)
            solves += 1
            if solves > node_limit:
                raise SolverError("branch-and-bound node limit exceeded")
            if val is None or val >= incumbent_val - 1e-9:
                continue
            counter += 1
            heapq.heappush(heap, (val, counter, child_z0, child_z1, cx))

    if incumbent is None:
        return Solution(None, np.nan, np.nan, np.nan, "infeasible")
    return incumbent
