"""Dense simplex solver with warm re-solves after appended rows.

The LPs solved here stay small: cutting-plane master problems over the
portfolio weights plus one epigraph variable, and feasibility probes of
portfolio constraint systems. A dense tableau simplex with an explicit basis
is enough and keeps the package dependency-free. Entering variable: most
negative reduced cost, ratio ties broken by largest pivot element; after a
sustained run of degenerate pivots (10x the row count) the solver falls back
to Bland's rule, which cannot cycle.

Every row is an inequality with its own slack (an equality is a pair of
opposing rows), so the all-slack basis is a valid start however the right-
hand sides are signed. Phase 1 is the dual simplex (Lemke, Naval Res.
Logistics Q. 1 (1954)) under zero costs, where every basis is dual
feasible; phase 2 is the primal simplex under the real costs. An optimal
`solve` returns its final tableau. `Tableau.add_rows` appends inequality
rows to it and re-optimizes the same way, by the dual simplex under the real
costs: the old basis plus the new rows' slacks keeps every reduced cost
nonnegative, so a few dual pivots restore primal feasibility. Either way an
LP is infeasible exactly when a dual pivot finds a row below -FEAS_TOL with
no negative entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# The dual simplex stops once every basic value is >= -DUAL_STOP_TOL. Far
# tighter than FEAS_TOL: a primal pivot keeps values >= 0 up to rounding, and
# a warm re-solve should leave points that satisfy their bounds as closely.
DUAL_STOP_TOL = 1e-12


@dataclass(frozen=True)
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit
    x: np.ndarray | None
    objective: float | None
    iterations: int
    tableau: Tableau | None = None  # the optimal tableau, for Tableau.add_rows


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _run_simplex(T, basis, c, maxiter, bland_after):
    """Pivot until optimal/unbounded. T is m x (n+1) with rhs last; T[:,basis]=I."""
    m, n1 = T.shape
    n = n1 - 1
    degen_run = 0
    bland = False
    for it in range(maxiter):
        r = c - c[basis] @ T[:, :n]
        r[basis] = 0.0
        if bland:
            neg = np.flatnonzero(r < -OPT_TOL)
            if neg.size == 0:
                return "optimal", it
            enter = int(neg[0])
        else:
            enter = int(np.argmin(r))
            if r[enter] >= -OPT_TOL:
                return "optimal", it
        col = T[:, enter]
        pos = col > FEAS_TOL
        if not pos.any():
            return "unbounded", it
        ratios = np.full(m, np.inf)
        ratios[pos] = T[pos, n] / col[pos]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + FEAS_TOL * (1.0 + abs(best)))
        if bland:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        if best <= FEAS_TOL:
            degen_run += 1
            if degen_run > bland_after:
                bland = True
        else:
            degen_run = 0
            bland = False
        _pivot(T, leave, enter)
        basis[leave] = enter
    return "iteration-limit", maxiter


def _run_dual_simplex(T, basis, c, maxiter, bland_after):
    """Dual-simplex pivots on a dual-feasible tableau until the rhs is >= 0.

    Leaving row: most negative rhs; entering column: smallest ratio of
    reduced cost to |row entry|, ties broken by the largest |pivot|. A run of
    degenerate pivots switches both choices to Bland's lowest index. Stops
    when every basic value is >= -DUAL_STOP_TOL; a row below -FEAS_TOL with
    no negative entry proves the LP infeasible, one above it is rounding and
    is left until the next pivot.
    """
    m, n1 = T.shape
    n = n1 - 1
    degen_run = 0
    bland = False
    stuck = np.zeros(m, dtype=bool)
    for it in range(maxiter):
        rhs = np.where(stuck, 0.0, T[:, n])
        neg = np.flatnonzero(rhs < -DUAL_STOP_TOL)
        if neg.size == 0:
            return "optimal", it
        leave = int(neg[np.argmin(basis[neg] if bland else rhs[neg])])
        row = T[leave, :n]
        cand = row < -FEAS_TOL
        if not cand.any():
            if rhs[leave] < -FEAS_TOL:
                return "infeasible", it
            stuck[leave] = True
            continue
        r = c - c[basis] @ T[:, :n]
        ratios = np.full(n, np.inf)
        ratios[cand] = np.maximum(r[cand], 0.0) / -row[cand]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + OPT_TOL * (1.0 + abs(best)))
        enter = int(ties[0]) if bland else int(ties[np.argmin(row[ties])])
        if best <= OPT_TOL:
            degen_run += 1
            if degen_run > bland_after:
                bland = True
        else:
            degen_run = 0
            bland = False
        _pivot(T, leave, enter)
        basis[leave] = enter
        stuck[:] = False
    return "iteration-limit", maxiter


class Tableau:
    """The tableau of an LP in standard form, kept to re-optimize after new rows.

    T is [structural columns | slacks | rhs] with T[:, basis] = I; the
    original variables are x = offset + S @ y over the structural columns y.
    `add_rows` changes the tableau in place; `copy` branches it.
    """

    def __init__(self, T, basis, c, S, offset):
        self.T = T
        self.basis = basis
        self.c = c  # objective on the original variables
        self.S = S
        self.offset = offset

    def copy(self) -> Tableau:
        return Tableau(self.T.copy(), self.basis.copy(), self.c, self.S, self.offset)

    def result(self, iterations: int) -> LpResult:
        y = np.zeros(self.T.shape[1] - 1)
        y[self.basis] = self.T[:, -1]
        x = self.offset + self.S @ y[: self.S.shape[1]]
        return LpResult("optimal", x, float(self.c @ x), iterations, self)

    def add_rows(self, A, b) -> LpResult:
        """Append the rows A x <= b (original variables) and re-optimize.

        Each new row gets a basic slack, expressed in the current basis; its
        value may be negative, which the dual simplex repairs. An infeasible
        or unfinished re-solve leaves the tableau unusable.
        """
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        k = A.shape[0]
        m, n1 = self.T.shape
        n = n1 - 1
        T = np.zeros((m + k, n + k + 1))
        T[:m, :n] = self.T[:, :n]
        T[:m, -1] = self.T[:, -1]
        new = T[m:]
        new[:, : self.S.shape[1]] = A @ self.S
        new[:, n : n + k] = np.eye(k)
        new[:, -1] = b - A @ self.offset
        new -= new[:, self.basis] @ T[:m]
        self.T, self.basis = T, np.concatenate([self.basis, np.arange(n, n + k)])
        return self._optimize(phase1=False)

    def _optimize(self, phase1: bool) -> LpResult:
        """Dual simplex to a primal feasible basis, then primal simplex to optimal.

        The dual pass needs every reduced cost nonnegative in the starting
        basis: a cold start (`phase1`) runs it under zero costs, a re-solve
        after appended rows under the real costs. The primal pass then
        optimizes the real costs; after a re-solve it only cleans up reduced
        costs that ratio ties within tolerance left slightly negative.
        """
        m, n = self.T.shape[0], self.T.shape[1] - 1
        cost = np.zeros(n)
        cost[: self.S.shape[1]] = self.c @ self.S
        maxiter = 10000 + 25 * (m + n)
        bland_after = 10 * max(m, 1)
        dual_cost = np.zeros(n) if phase1 else cost
        status, it1 = _run_dual_simplex(self.T, self.basis, dual_cost, maxiter, bland_after)
        it2 = 0
        if status == "optimal":
            status, it2 = _run_simplex(self.T, self.basis, cost, maxiter, bland_after)
        if status != "optimal":
            return LpResult(status, None, None, it1 + it2)
        return self.result(it1 + it2)


def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LpResult:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq and box bounds.

    `bounds` is a per-variable list of (lo, hi); None means unbounded on that
    side; default (0, inf). Free variables are split, finite lower bounds are
    shifted out, finite upper bounds become rows.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.size
    A_ub = np.zeros((0, nvar)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    A_eq = np.zeros((0, nvar)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    if bounds is None:
        bounds = [(0.0, None)] * nvar
    if len(bounds) != nvar:
        raise ValueError("bounds length must match the number of variables")

    # Rewrite every variable as a nonnegative one: shift finite lower bounds,
    # mirror (-inf, hi] variables, split free ones. x = offset + S @ y over
    # the shifted columns y >= 0.
    lo = np.array([-np.inf if b[0] is None else float(b[0]) for b in bounds])
    hi = np.array([np.inf if b[1] is None else float(b[1]) for b in bounds])
    free = ~np.isfinite(lo) & ~np.isfinite(hi)
    boxed = np.isfinite(lo) & np.isfinite(hi)
    col = np.arange(nvar) + np.cumsum(free) - free  # the column of y each x_j starts at
    S = np.zeros((nvar, nvar + int(free.sum())))
    S[np.arange(nvar), col] = np.where(np.isfinite(lo) | free, 1.0, -1.0)
    S[free, col[free] + 1] = -1.0
    offset = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))

    # Rows A y <= rhs: the inequalities, the finite upper bounds (the rows of
    # S of the boxed variables) and each equality as an opposing pair.
    Aeq_y, beq_y = A_eq @ S, b_eq - A_eq @ offset
    A = np.vstack([A_ub @ S, S[boxed], Aeq_y, -Aeq_y])
    rhs = np.concatenate([b_ub - A_ub @ offset, (hi - lo)[boxed], beq_y, -beq_y])
    m, ncols = A.shape
    T = np.hstack([A, np.eye(m), rhs[:, None]])
    return Tableau(T, np.arange(ncols, ncols + m), c, S, offset)._optimize(phase1=True)


def find_feasible_point(A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """Phase-1 probe: a feasible point, or None when the system is infeasible."""
    nvar = None
    for mat in (A_ub, A_eq):
        if mat is not None:
            nvar = np.atleast_2d(np.asarray(mat)).shape[1]
            break
    if nvar is None:
        nvar = len(bounds)
    res = solve(np.zeros(nvar), A_ub, b_ub, A_eq, b_eq, bounds)
    if res.status == "optimal":
        return res.x
    if res.status == "infeasible":
        return None
    raise SolverError(f"feasibility probe failed: {res.status}")
