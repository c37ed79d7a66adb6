"""Scenario-based CVaR portfolio optimization.

Three solve paths share one problem object: Kelley's cutting-plane method
on a scenario set, an exact solver for elliptical returns (the loss is
||P x|| X_1 - x'mu, so the true CVaR objective is convex and available in
closed form; it is minimized by a 1-D search along the efficient frontier,
each point one polytope projection), and a best-first branch-and-bound for
cardinality-restricted supports that runs the cutting-plane method in every
node. Discrete CVaR uses exact atom splitting at the beta-quantile.

The cutting-plane master LP lives on [x, t] only: the region rows, the
budget, the box, the P1 return floor and the cuts t >= g'x. Discrete CVaR of
-x'y is convex and positively homogeneous in x (Kuenzi-Bay & Mayer,
Comput. Manag. Sci. 3 (2006)), so each subgradient g gives a cut with no
intercept that holds at every x and in every branch-and-bound node. The
master grows one row per cut and is re-solved warm (lp.Tableau.add_rows),
so its size does not depend on the scenario count.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .cones import FeasibleRegion, project_polytope
from .distributions import EllipticalDistribution, ScenarioSet
from .errors import ConfigError, SolverError

P1 = "P1"  # min CVaR subject to a target expected return
P3 = "P3"  # min lam*CVaR + (1-lam)*(-expected return)

_TIE_BREAK = 1e-12
GAP_TOL = 1e-9  # certified relative gap: best - bound <= GAP_TOL * (1 + |best|)
_CUTS_PER_DIM = 100  # cap on new cuts in one certification: _CUTS_PER_DIM * (d + 1)
_NODE_LIMIT = 100_000  # branch-and-bound masters certified per solve_cardinality call


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
    seed: int | None = None
    scenario_count: int | None = None
    lp_objective: float | None = None  # certified lower bound of the cutting-plane master, when one ran

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
    """beta-quantile (VaR) of a weighted discrete loss vector, by selection.

    The VaR is the first loss, in stable ascending order, at which the
    cumulative probability reaches beta - 1e-12. Any m losses carry at most
    m * max(p) of mass, so for the largest m with
    m * max(p) * (1 + 1e-9) < beta - 1e-12 the m smallest losses cannot
    reach it, and the VaR lies among the k = n - m largest. The 1e-9 margin
    is far above the rounding of any cumulative sum, so the bound also holds
    for the sums a full sort computes. One introselect (np.argpartition)
    splits off the m smallest; only the k largest are sorted. Their
    cumulative mass continues one running sum over the bottom m, added one
    at a time as a full sort's cumsum adds them. The bottom m (and ties in
    the top k) are added in the order argpartition leaves them, which can
    change a partial sum by rounding alone; with equal weights it changes
    nothing, so every partial sum, and hence the VaR, is the full sort's bit
    for bit.
    Equal weights give k = ceil((1-beta) n) or one more; an aggregated set
    whose heavy atom carries most of the mass gives m = 0, the full sort.
    """
    n = losses.size
    target = beta - 1e-12
    m = min(max(math.ceil(target / (probs.max() * (1.0 + 1e-9))) - 1, 0), n - 1)
    below, top = 0.0, slice(None)
    if m > 0:
        part = np.argpartition(losses, m)
        below = np.cumsum(probs[part[:m]])[-1]
        top = part[m:]
    top_losses = losses[top]
    order = np.argsort(top_losses, kind="stable")
    mass = probs[top][order]
    mass[0] += below
    cum = np.cumsum(mass)
    idx = min(int(np.searchsorted(cum, target)), n - m - 1)
    return float(top_losses[order[idx]])


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


def discrete_var(scenarios: ScenarioSet, x, beta: float) -> float:
    """beta-quantile of the discrete loss distribution."""
    losses = -(scenarios.points @ np.asarray(x, dtype=float))
    return _loss_var(losses, scenarios.probs, beta)


def evaluate_objective(problem: PortfolioProblem, scenarios: ScenarioSet, x) -> float:
    """The problem objective at x, with CVaR taken from the scenario set."""
    return problem.objective(discrete_cvar(scenarios, x, problem.beta),
                             float(np.asarray(x) @ problem.mu))


def cvar_subgradient(scenarios: ScenarioSet, x, beta: float) -> np.ndarray:
    """A subgradient g of x -> discrete beta-CVaR of -x'y, with atom splitting.

    g is -(w'Y)/(1-beta) for tail weights 0 <= w_i <= p_i summing to 1-beta:
    p_i above the VaR, and the leftover mass spread over the scenarios whose
    loss equals the VaR exactly. Such w is feasible in the dual of the CVaR
    LP, so g'x' <= CVaR(x') for every x', with equality at x. Spreading over
    near-ties instead could push a scenario above the VaR past its p_i.
    """
    losses = -(scenarios.points @ np.asarray(x, dtype=float))
    return _tail_subgradient(scenarios, losses, _loss_var(losses, scenarios.probs, beta), beta)


def _tail_subgradient(scenarios: ScenarioSet, losses, var: float, beta: float) -> np.ndarray:
    """cvar_subgradient from the losses at x and their VaR."""
    weights = np.where(losses > var, scenarios.probs, 0.0)
    at_var = losses == var
    residual = (1.0 - beta) - weights.sum()
    mass_at_var = scenarios.probs[at_var].sum()
    if mass_at_var > 0 and residual > 0:
        weights = weights + at_var * (scenarios.probs * residual / mass_at_var)
    return -(weights @ scenarios.points) / (1.0 - beta)


def _finish(problem, scenarios, x, z=None, lp_objective=None) -> Solution:
    cvar = discrete_cvar(scenarios, x, problem.beta)
    ret = float(x @ problem.mu)
    return Solution(x, problem.objective(cvar, ret), cvar, ret, "optimal", z=z,
                    scenario_count=scenarios.n, lp_objective=lp_objective)


def _on_x(A, t_coeff: float = 0.0) -> np.ndarray:
    """Rows over x as master rows over [x, t], with t_coeff on t."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return np.hstack([A, np.full((A.shape[0], 1), t_coeff)])


@dataclass
class _Node:
    """A certified master: its best point, that point's value and the bound.

    `have` lists the pool cuts already rows of `tableau`.
    """

    status: str
    x: np.ndarray | None = None
    value: float = np.inf
    bound: float = -np.inf
    tableau: lp.Tableau | None = None
    have: set = None


class _CuttingPlane:
    """Kelley's cutting-plane method on the master LP over [x, t].

    The master minimizes weight * t + lin'x, the objective with CVaR replaced
    by t (lin carries P3's return term and the tie-break that picks the same
    vertex among equal optima). Every cut enters one pool shared by all
    masters built from this object.
    """

    def __init__(self, problem: PortfolioProblem, scenarios: ScenarioSet):
        d = problem.d
        self.problem, self.scenarios = problem, scenarios
        self.weight = problem.weight
        self.lin = _TIE_BREAK * np.arange(1, d + 1)
        if problem.mode == P3:
            self.lin = self.lin - (1.0 - problem.lam) * problem.mu
        self.pool = np.zeros((0, d))
        self.cap = _CUTS_PER_DIM * (d + 1)

    def _add_cut(self, g) -> int:
        self.pool = np.vstack([self.pool, g])
        return self.pool.shape[0] - 1

    def root(self, upper, A=None, b=None) -> _Node:
        """Certify the first master: box up to `upper`, extra rows A x <= b.

        It is the one master solved from scratch by lp.solve, with a single
        cut taken at the equal-weight portfolio (which need not be feasible).
        """
        problem, region = self.problem, self.problem.region
        d = region.d
        first = self._add_cut(cvar_subgradient(self.scenarios, np.full(d, region.capital / d),
                                                problem.beta))
        rows, rhs = [region.A], [region.b]
        if problem.mode == P1:
            rows.append([-problem.mu])
            rhs.append([-problem.tau])
        if A is not None:
            rows.append(A)
            rhs.append(b)
        res = lp.solve(np.append(self.lin, self.weight),
                       np.vstack([_on_x(np.vstack(rows)), _on_x(self.pool[first], -1.0)]),
                       np.append(np.concatenate(rhs), 0.0),
                       _on_x(np.ones(d)), [region.capital],
                       list(zip(region.lower, upper)) + [(None, None)])
        if res.status == "unbounded":
            raise SolverError("CVaR master LP is unbounded; the model is malformed")
        return self.certify(res, {first})

    def branch(self, node: _Node, A, b) -> _Node:
        """Certify a copy of a certified master with the rows A x <= b added."""
        res = node.tableau.copy().add_rows(_on_x(A), b)
        return self.certify(res, set(node.have))

    def certify(self, res: lp.LpResult, have: set) -> _Node:
        """Add cuts until best - bound <= GAP_TOL (1 + |best|).

        Each round first appends the pool cuts the master point violates;
        when none does, it evaluates the objective there (every master
        point is feasible) and, short of the gap, adds the cut at that point.
        """
        d = self.problem.d
        best, x_best = np.inf, None
        new = 0
        while res.status == "optimal":
            x, t, bound = res.x[:d], res.x[d], res.objective
            out = np.array([k for k in range(self.pool.shape[0]) if k not in have], dtype=int)
            violated = out[self.pool[out] @ x - t > GAP_TOL * (1.0 + abs(t))]
            if violated.size:
                have.update(int(k) for k in violated)
                res = res.tableau.add_rows(_on_x(self.pool[violated], -1.0),
                                           np.zeros(violated.size))
                continue
            losses, var, cvar = _loss_tail(self.scenarios, x, self.problem.beta)
            value = self.weight * cvar + float(self.lin @ x)
            if value < best:
                best, x_best = value, x
            if best - bound <= GAP_TOL * (1.0 + abs(best)):
                return _Node("optimal", x_best, best, bound, res.tableau, have)
            if new == self.cap:
                return _Node("iteration-limit")
            k = self._add_cut(_tail_subgradient(self.scenarios, losses, var, self.problem.beta))
            have.add(k)
            new += 1
            res = res.tableau.add_rows(_on_x(self.pool[k], -1.0), [0.0])
        return _Node(res.status)


def solve_lp(problem: PortfolioProblem, scenarios: ScenarioSet) -> Solution:
    """Cutting-plane solve of the continuous scenario problem.

    Returns the best master point; its reported CVaR is discrete_cvar there,
    and `lp_objective` is the master bound, within GAP_TOL of the objective.
    """
    if problem.cardinality is not None:
        raise ConfigError("use solve_cardinality for problems with a support limit")
    if scenarios.n == 0:
        raise ConfigError("scenario set is empty")
    node = _CuttingPlane(problem, scenarios).root(problem.region.upper)
    if node.status != "optimal":
        return Solution(None, np.nan, np.nan, np.nan, node.status)
    return _finish(problem, scenarios, node.x, lp_objective=node.bound)


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
    weight = problem.weight * dist.tail_cvar(problem.beta)
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
    return Solution(x, problem.objective(cvar, ret), cvar, ret, "optimal")


# ---------------------------------------------------------------------------
# branch and bound on the support


def solve_cardinality(problem: PortfolioProblem, scenarios: ScenarioSet) -> Solution:
    """Best-first branch-and-bound for the support-limited problem.

    Nodes fix assets in (z=0) or out (z=1); the relaxation keeps fractional
    z implicitly through sum(x_j / cap_j) <= slots over the free assets.
    Branches on the most fractional ratio. The support-size constraint is
    implemented as <=; with x_i <= u_i z_i and free z this has the same
    optimal value as equality. A child is its parent's certified master plus
    one row: x_j <= 0 for z0, its own slot row for z1 (the parent's stays,
    implied by it); a slot row with no fewer slots than free assets is
    redundant but valid. The node bound is the certified master bound; the
    cut pool is shared by all nodes.
    """
    card = problem.cardinality
    if card is None:
        raise ConfigError("problem has no cardinality constraint")
    region = problem.region
    d, l = region.d, card.max_assets
    caps = np.minimum(card.caps, region.upper)
    if np.sort(caps)[::-1][:l].sum() < region.capital - 1e-12:
        return Solution(None, np.nan, np.nan, np.nan, "infeasible")

    cutting = _CuttingPlane(replace(problem, cardinality=None), scenarios)

    def slot_row(z0: frozenset, z1: frozenset):
        coeffs = np.zeros(d)
        for j in range(d):
            if j not in z0 and j not in z1 and caps[j] > 1e-12:
                coeffs[j] = 1.0 / caps[j]
        return coeffs, float(l - len(z1))

    def support_of(x):
        return frozenset(int(j) for j in np.flatnonzero(x > 1e-9))

    def z_vector(chosen: frozenset):
        z = np.zeros(d, dtype=int)
        for j in chosen:
            z[j] = 1
        return z

    def failed(node: _Node):
        return Solution(None, np.nan, np.nan, np.nan, node.status)

    incumbent_val = np.inf
    incumbent: Solution | None = None
    counter = 0
    heap: list = []

    coeffs, slots = slot_row(frozenset(), frozenset())
    root = cutting.root(caps, [coeffs], [slots])
    if root.status != "optimal":
        return failed(root)
    solves = 1

    # Greedy incumbent: restrict to the l largest relaxation positions.
    order = np.argsort(-root.x / np.maximum(caps, 1e-12))
    out = np.sort(order[l:])
    greedy = cutting.branch(root, np.eye(d)[out], np.zeros(out.size)) if out.size else root
    solves += 1
    if greedy.status == "iteration-limit":
        return failed(greedy)
    if greedy.status == "optimal":
        incumbent_val = greedy.value
        incumbent = _finish(problem, scenarios, greedy.x, z=z_vector(support_of(greedy.x)),
                            lp_objective=greedy.bound)

    heapq.heappush(heap, (root.bound, counter, frozenset(), frozenset(), root))
    while heap:
        bound, _, z0, z1, node = heapq.heappop(heap)
        if bound >= incumbent_val - 1e-9:
            break
        x = node.x
        sup = support_of(x)
        chosen = z1 | sup
        if len(chosen) <= l:
            if node.value < incumbent_val:
                incumbent_val = node.value
                incumbent = _finish(problem, scenarios, x, z=z_vector(chosen), lp_objective=bound)
            continue
        free = [j for j in sup if j not in z1]
        ratios = np.array([min(x[j] / caps[j], 1.0) for j in free])
        j_branch = free[int(np.argmax(np.minimum(ratios, 1.0 - ratios)))]
        children = [(z0 | {j_branch}, z1, np.eye(d)[j_branch], 0.0)]
        if len(z1) < l:
            children.append((z0, z1 | {j_branch}, *slot_row(z0, z1 | {j_branch})))
        for child_z0, child_z1, row, rhs in children:
            child = cutting.branch(node, row, [rhs])
            solves += 1
            if solves > _NODE_LIMIT:
                raise SolverError("branch-and-bound node limit exceeded")
            if child.status == "iteration-limit":
                return failed(child)
            if child.status != "optimal" or child.bound >= incumbent_val - 1e-9:
                continue
            counter += 1
            heapq.heappush(heap, (child.bound, counter, child_z0, child_z1, child))

    if incumbent is None:
        return Solution(None, np.nan, np.nan, np.nan, "infeasible")
    return incumbent
