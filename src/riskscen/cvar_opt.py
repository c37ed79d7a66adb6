"""Scenario-based CVaR portfolio optimization.

One solver, Kelley's cutting-plane method, minimizes every CVaR objective.
Each source has one risk oracle (_risk): discrete CVaR over the weighted
atoms of a scenario set, with exact atom splitting at the beta-quantile, and
the exact CVaR for elliptical returns (the loss is ||P x|| X_1 - x'mu, so the
true CVaR is c ||P x|| - mu'x with c the spherical beta-CVaR). One engine
(_solve) takes any oracle: one master for a continuous problem, and a
best-first branch-and-bound that runs the same method in every node under a
support limit.

The cutting-plane master LP lives on [x, t] only: the region rows, the
budget, the box, the P1 return floor and the cuts t >= h'x, and its cost is
t alone. Each cut bounds the whole objective, h = weight * g + lin for a risk
subgradient g and P3's return term lin, so the master bound (`lp_objective`)
is a lower bound on the objective of the returned point. Both risk
measures are convex and positively homogeneous in x (for discrete CVaR of
-x'y see Kuenzi-Bay & Mayer, Comput. Manag. Sci. 3 (2006)), so each
subgradient g gives a cut with no intercept that holds at every x, and a
branch-and-bound child keeps every cut of its parent's master. The master
grows one row per cut and is re-solved warm (lp.Tableau.add_rows), so its
size does not depend on the scenario count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .cones import FeasibleRegion
from .distributions import (EllipticalDistribution, EmpiricalDistribution, ScenarioSet,
                            portfolio_loss_stats)
from .errors import ConfigError, SolverError

P1 = "P1"  # min CVaR subject to a target expected return
P3 = "P3"  # min lam*CVaR + (1-lam)*(-expected return)

GAP_TOL = 1e-9  # certified relative gap: best - bound <= GAP_TOL * (1 + |best|)
# Gap of the exact elliptical solve. Its objective is smooth at the optimum,
# where the distance of x from the optimum grows like sqrt(gap): GAP_TOL
# leaves x 2e-5 away, 1e-12 about 5e-7. 1e-13 is below the master's
# rounding floor, and solves end at the cut cap.
_EXACT_GAP_TOL = 1e-12
_CUTS_PER_DIM = 100  # cap on new cuts in one certification: _CUTS_PER_DIM * (d + 1)
_NODE_LIMIT = 100_000  # branch-and-bound masters certified per _solve call


@dataclass(frozen=True)
class Cardinality:
    """At most `max_assets` nonzero positions, each within the region's own box."""

    max_assets: int


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
            if self.cardinality.max_assets < 1:
                raise ConfigError("cardinality limit must be >= 1")
            object.__setattr__(self, "cardinality", Cardinality(int(self.cardinality.max_assets)))

    @property
    def d(self) -> int:
        return self.region.d

    @property
    def weight(self) -> float:
        """The weight on CVaR in the objective: 1 for P1, lam for P3."""
        return 1.0 if self.mode == P1 else self.lam

    def objective(self, cvar: float, ret: float) -> float:
        """The objective at a portfolio with this CVaR and expected return."""
        return cvar if self.mode == P1 else self.lam * cvar + (1.0 - self.lam) * (-ret)


@dataclass(frozen=True)
class Solution:
    x: np.ndarray | None
    objective: float
    cvar: float
    expected_return: float
    status: str  # optimal | infeasible | iteration-limit
    z: np.ndarray | None = None
    lp_objective: float | None = None  # certified lower bound of the cutting-plane master, when one ran


def _loss_var(losses: np.ndarray, probs: np.ndarray, beta: float) -> float:
    """beta-quantile (VaR) of a weighted discrete loss vector, counted from the tail.

    The VaR is the smallest loss whose exceedance mass P[loss > VaR] is at
    most 1 - beta + 1e-12 (for mass 1: where the cumulative mass reaches
    beta - 1e-12). The m smallest losses carry at most m * max(p), so for the
    largest m with m * max(p) * (1 + 1e-9) < beta - 1e-12 the VaR lies among
    the k = n - m largest. One np.argpartition splits those off, and only
    they are sorted, in descending order. Their cumulative mass adds about
    (1-beta) n terms, none above 1 - beta, so its rounding stays far below
    the 1e-12 slack. The order of ties changes no VaR value.
    Equal weights give k = ceil((1-beta) n) or one more; an aggregated set
    whose heavy atom carries most of the mass gives m = 0, the full sort.
    """
    n = losses.size
    m = min(max(math.ceil((beta - 1e-12) / (probs.max() * (1.0 + 1e-9))) - 1, 0), n - 1)
    top = np.argpartition(losses, m)[m:]
    order = top[np.argsort(losses[top])[::-1]]
    cum = np.cumsum(probs[order])
    idx = min(int(np.searchsorted(cum, (1.0 - beta) + 1e-12, side="right")), n - m - 1)
    return float(losses[order[idx]])


def _loss_tail(scenarios: ScenarioSet, x, beta: float):
    """(losses, VaR, CVaR) of the loss -x'y; the VaR from _loss_var's selection."""
    losses = -(scenarios.points @ np.asarray(x, dtype=float))
    var = _loss_var(losses, scenarios.probs, beta)
    gt = losses > var
    p_le = 1.0 - scenarios.probs[gt].sum()
    tail = float(scenarios.probs[gt] @ losses[gt])
    return losses, var, float((tail + var * (p_le - beta)) / (1.0 - beta))


def discrete_cvar(scenarios: ScenarioSet, x, beta: float) -> float:
    """Exact beta-CVaR of the loss -x'y over a weighted discrete set.

    Splits the quantile atom: with V the beta-VaR,
    CVaR = (sum_{loss > V} p*loss + V*(P[loss <= V] - beta)) / (1 - beta).
    """
    return _loss_tail(scenarios, x, beta)[2]


def evaluate_objective(problem: PortfolioProblem, scenarios: ScenarioSet, x) -> float:
    """The problem objective at x, with CVaR taken from the scenario set."""
    return problem.objective(discrete_cvar(scenarios, x, problem.beta),
                             float(np.asarray(x) @ problem.mu))


def _tail_subgradient(scenarios: ScenarioSet, losses, var: float, beta: float) -> np.ndarray:
    """A subgradient g of x -> discrete beta-CVaR of -x'y, from the losses at x and their VaR.

    g is -(w'Y)/(1-beta) for tail weights 0 <= w_i <= p_i summing to 1-beta:
    p_i above the VaR, and the leftover mass spread over the scenarios whose
    loss equals the VaR exactly. Such w is feasible in the dual of the CVaR
    LP, so g'x' <= CVaR(x') for every x', with equality at x. Spreading over
    near-ties instead could push a scenario above the VaR past its p_i.
    """
    weights = np.where(losses > var, scenarios.probs, 0.0)
    at_var = losses == var
    residual = (1.0 - beta) - weights.sum()
    mass_at_var = scenarios.probs[at_var].sum()
    if mass_at_var > 0 and residual > 0:
        weights = weights + at_var * (scenarios.probs * residual / mass_at_var)
    return -(weights @ scenarios.points) / (1.0 - beta)


def _solution(problem: PortfolioProblem, x, cvar: float, z=None) -> Solution:
    """The optimal-status Solution at x, whose CVaR is `cvar`, with support `z`."""
    ret = float(x @ problem.mu)
    return Solution(x, problem.objective(cvar, ret), cvar, ret, "optimal", z)


def _failed(status: str) -> Solution:
    return Solution(None, np.nan, np.nan, np.nan, status)


def _on_x(A, t_coeff: float = 0.0) -> np.ndarray:
    """Rows over x as master rows over [x, t], with t_coeff on t."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return np.hstack([A, np.full((A.shape[0], 1), t_coeff)])


@dataclass
class _Node:
    """A certified master: the Solution at its best point, and the master bound."""

    best: Solution
    bound: float = -np.inf
    tableau: lp.Tableau | None = None

    def solution(self, z=None) -> Solution:
        """The best point with support `z` and the bound as `lp_objective`; a failure as is."""
        if self.best.status != "optimal":
            return self.best
        return replace(self.best, z=z, lp_objective=self.bound)


def _risk(source, beta: float):
    """Exact risk oracle of the loss -x'Y: x -> (VaR, CVaR, the call that returns a CVaR subgradient).

    Elliptical: portfolio_loss_stats, gradient c P'P x / ||P x|| - mu. Empirical: the weighted atoms.
    """
    if isinstance(source, EllipticalDistribution):
        P, mu, c = source.factor, source.mu, source.tail_cvar(beta)

        def elliptical(x):
            var, cvar, _ = portfolio_loss_stats(source, x, beta)
            u = P @ x
            return var, cvar, lambda: c * (P.T @ u) / float(np.linalg.norm(u)) - mu
        return elliptical
    if isinstance(source, EmpiricalDistribution):
        scenarios = source.scenarios

        def empirical(x):
            losses, var, cvar = _loss_tail(scenarios, x, beta)
            return var, cvar, lambda: _tail_subgradient(scenarios, losses, var, beta)
        return empirical
    raise ConfigError("exact CVaR needs an elliptical or empirical distribution source")


class _CuttingPlane:
    """Kelley's cutting-plane method on the master LP over [x, t].

    The master minimizes t subject to the cuts t >= h'x, h = weight * g + lin
    for a risk subgradient g (lin is P3's return term, zero for P1), so t is
    the objective with CVaR replaced by its cutting-plane model and the bound
    is a lower bound on the objective. `risk` is a _risk oracle; the CVaR
    must be convex and positively homogeneous, so every cut has no
    intercept. Each master holds the cuts taken at its own points and at
    those of the masters it was copied from. The master never reads the
    problem's support limit; _solve branches on it.
    """

    def __init__(self, problem: PortfolioProblem, risk, gap: float):
        d = problem.d
        self.problem, self.risk, self.gap = problem, risk, gap
        self.weight = problem.weight
        self.lin = -(1.0 - problem.lam) * problem.mu if problem.mode == P3 else np.zeros(d)
        self.cap = _CUTS_PER_DIM * (d + 1)

    def cut(self, g) -> np.ndarray:
        """The master row of the cut t >= (weight * g + lin)'x, right-hand side 0."""
        return _on_x(self.weight * g + self.lin, -1.0)

    def root(self, A=None, b=None) -> _Node:
        """Certify the first master: the region's rows and box, extra rows A x <= b.

        It is the one master solved from scratch by lp.solve, with a single
        cut h0 taken at the equal-weight portfolio (which need not be
        feasible). Every feasible x is nonnegative with 1'x = capital, so
        t >= h0'x >= capital * min(h0) there, and that lower bound on t makes
        the cost e_t dual feasible from the all-slack basis.
        """
        problem, region = self.problem, self.problem.region
        d = region.d
        first = self.cut(self.risk(np.full(d, region.capital / d))[2]())
        rows, rhs = [region.A], [region.b]
        if problem.mode == P1:
            rows.append([-problem.mu])
            rhs.append([-problem.tau])
        if A is not None:
            rows.append(A)
            rhs.append(b)
        res = lp.solve(np.eye(d + 1)[d], np.vstack([_on_x(np.vstack(rows)), first]),
                       np.append(np.concatenate(rhs), 0.0),
                       _on_x(np.ones(d)), [region.capital],
                       list(zip(region.lower, region.upper))
                       + [(region.capital * first[0, :d].min(), None)])
        return self.certify(res)

    def branch(self, node: _Node, A, b) -> _Node:
        """Certify a copy of a certified master with the rows A x <= b added."""
        return self.certify(node.tableau.copy().add_rows(_on_x(A), b))

    def certify(self, res: lp.LpResult) -> _Node:
        """Add cuts until best - bound <= gap (1 + |best|).

        Each round evaluates the objective at the master point (every master
        point is feasible) and, short of the gap, adds the cut at that point.
        """
        problem = self.problem
        best, new = None, 0
        while res.status == "optimal":
            x, bound = res.x[:problem.d], res.objective
            _, cvar, subgradient = self.risk(x)
            point = _solution(problem, x, cvar)
            if best is None or point.objective < best.objective:
                best = point
            if best.objective - bound <= self.gap * (1.0 + abs(best.objective)):
                return _Node(best, bound, res.tableau)
            if new == self.cap:
                return _Node(_failed("iteration-limit"))
            new += 1
            res = res.tableau.add_rows(self.cut(subgradient()), [0.0])
        return _Node(_failed(res.status))


def _support_reaches_budget(region: FeasibleRegion, max_assets: int) -> bool:
    """Whether the `max_assets` largest upper bounds can hold the budget."""
    return bool(np.sort(region.upper)[::-1][:max_assets].sum() >= region.capital - 1e-12)


def _solve(problem: PortfolioProblem, risk, gap: float) -> Solution:
    """Minimize the objective with CVaR from the oracle `risk`, to a certified relative `gap`.

    A continuous problem is one cutting-plane master. Under a support limit
    it is a best-first branch-and-bound: nodes fix assets in (z=1) or out
    (z=0); the relaxation keeps fractional z implicitly through
    sum(x_j / u_j) <= slots over the free assets, u the region's upper
    bounds. Branches on the most fractional ratio. The support-size
    constraint is implemented as <=; with x_i <= u_i z_i and free z this has
    the same optimal value as equality. A child is its parent's certified
    master plus one row: x_j <= 0 for z0, its own slot row for z1 (the
    parent's stays, implied by it); a slot row with no fewer slots than free
    assets is redundant but valid. The node bound is the certified master
    bound, and a node's master holds only its own cuts and its ancestors', so
    its result does not depend on the order in which other nodes ran. The
    first incumbent comes from the first node popped whose support fits the
    limit.
    """
    region = problem.region
    cutting = _CuttingPlane(problem, risk, gap)
    if problem.cardinality is None:
        return cutting.root().solution()
    d, l, upper = region.d, problem.cardinality.max_assets, region.upper
    if not _support_reaches_budget(region, l):
        return _failed("infeasible")

    def slot_row(z0: frozenset, z1: frozenset):
        free = ~np.isin(np.arange(d), list(z0 | z1)) & (upper > 1e-12)
        return np.divide(1.0, upper, out=np.zeros(d), where=free), float(l - len(z1))

    incumbent_val = np.inf
    incumbent: Solution | None = None
    counter = 0
    heap: list = []

    coeffs, slots = slot_row(frozenset(), frozenset())
    root = cutting.root([coeffs], [slots])
    if root.best.status != "optimal":
        return root.best
    solves = 1

    heapq.heappush(heap, (root.bound, counter, frozenset(), frozenset(), root))
    while heap:
        bound, _, z0, z1, node = heapq.heappop(heap)
        if bound >= incumbent_val - 1e-9:
            break
        x = node.best.x
        sup = frozenset(np.flatnonzero(x > 1e-9).tolist())
        chosen = z1 | sup
        if len(chosen) <= l:
            if node.best.objective < incumbent_val:
                incumbent_val = node.best.objective
                incumbent = node.solution(np.isin(np.arange(d), list(chosen)).astype(int))
            continue
        free = [j for j in sup if j not in z1]
        ratios = np.array([min(x[j] / upper[j], 1.0) for j in free])
        j_branch = free[int(np.argmax(np.minimum(ratios, 1.0 - ratios)))]
        children = [(z0 | {j_branch}, z1, np.eye(d)[j_branch], 0.0)]
        if len(z1) < l:
            children.append((z0, z1 | {j_branch}, *slot_row(z0, z1 | {j_branch})))
        for child_z0, child_z1, row, rhs in children:
            child = cutting.branch(node, row, [rhs])
            solves += 1
            if solves > _NODE_LIMIT:
                raise SolverError("branch-and-bound node limit exceeded")
            if child.best.status == "iteration-limit":
                return child.best
            if child.best.status != "optimal" or child.bound >= incumbent_val - 1e-9:
                continue
            counter += 1
            heapq.heappush(heap, (child.bound, counter, child_z0, child_z1, child))

    if incumbent is None:
        return _failed("infeasible")
    return incumbent


def solve_lp(problem: PortfolioProblem, scenarios: ScenarioSet) -> Solution:
    """Cutting-plane solve of the continuous scenario problem.

    Returns the best master point; its reported CVaR is discrete_cvar there,
    and `lp_objective` is the master bound, a lower bound within GAP_TOL of
    the objective.
    """
    if problem.cardinality is not None:
        raise ConfigError("use solve_cardinality for problems with a support limit")
    return _solve(problem, _risk(EmpiricalDistribution(scenarios), problem.beta), GAP_TOL)


def solve_cardinality(problem: PortfolioProblem, scenarios: ScenarioSet) -> Solution:
    """Branch-and-bound solve of the support-limited scenario problem (see _solve).

    Each node's master is certified to GAP_TOL, and `z` marks the support
    of the returned point.
    """
    if problem.cardinality is None:
        raise ConfigError("problem has no cardinality constraint")
    return _solve(problem, _risk(EmpiricalDistribution(scenarios), problem.beta), GAP_TOL)


def solve_exact_elliptical(problem: PortfolioProblem, dist: EllipticalDistribution) -> Solution:
    """Minimize the exact CVaR objective for elliptical returns.

    The CVaR of the loss -x'y is c ||P x|| - mu'x, with c the spherical
    beta-CVaR and mu the mean of dist (problem.mu must equal it); the
    cutting-plane method minimizes it to a certified relative gap of 1e-12,
    and `lp_objective` is the master bound, a lower bound on the objective.
    A support limit runs _solve's branch-and-bound on the same oracle. A
    solve that ends without a certified optimum raises SolverError.
    """
    if not np.array_equal(problem.mu, dist.mu):
        raise ConfigError("the problem's mean is not the distribution's")
    sol = _solve(problem, _risk(dist, problem.beta), _EXACT_GAP_TOL)
    if sol.status != "optimal":
        raise SolverError(f"exact elliptical solve ended {sol.status}")
    return sol
