"""Dense dual-simplex solver with warm re-solves after appended rows.

The LPs solved here stay small: cutting-plane master problems over the
portfolio weights plus one epigraph variable, and feasibility probes of
portfolio constraint systems. A dense tableau with an explicit basis is
enough and keeps the package dependency-free.

Every LP is taken with nonnegative costs and finite lower bounds. Each lower
bound is shifted out, each finite upper bound becomes a row, and each row is
an inequality with its own slack (an equality is a pair of opposing rows).
The all-slack basis is then dual feasible however the right-hand sides are
signed: its reduced costs are the costs. So one engine solves every LP, the
dual simplex (Lemke, Naval Res. Logistics Q. 1 (1954)). `Tableau.add_rows`
appends inequality rows, whose basic slacks keep every reduced cost
nonnegative, and runs it; `solve` appends every row to an empty tableau, so
it runs from the all-slack basis, and returns the optimal tableau. Leaving
row: most negative rhs; entering column: smallest ratio of reduced cost to
|row entry|, ties broken by the largest |pivot|; after a sustained run of
degenerate pivots (10x the row count) both choices switch to Bland's lowest
index, which cannot cycle.
An LP is infeasible exactly when a pivot finds a row below -FEAS_TOL with no
negative entry. An optimal pass is checked: the reduced costs are recomputed
from the final tableau, and one below -OPT_TOL raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# The dual simplex stops once every basic value is >= -DUAL_STOP_TOL: far
# tighter than FEAS_TOL, so an optimal point satisfies its rows and bounds
# up to rounding.
DUAL_STOP_TOL = 1e-12


@dataclass(frozen=True)
class LpResult:
    status: str  # optimal | infeasible | iteration-limit
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


def _reduced_costs(T, basis, c) -> np.ndarray:
    r = c - c[basis] @ T[:, :-1]
    r[basis] = 0.0
    return r


def _run_dual_simplex(T, basis, c, maxiter, bland_after):
    """Dual-simplex pivots on a dual-feasible tableau until the rhs is >= 0.

    T is m x (n+1) with rhs last and T[:, basis] = I. Stops when every basic
    value is >= -DUAL_STOP_TOL; a row below -FEAS_TOL with no negative entry
    proves the LP infeasible, one above it is rounding and is left until the
    next pivot.
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
        r = _reduced_costs(T, basis, c)
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

    T is [shifted variables | slacks | rhs] with T[:, basis] = I; the original
    variables are x = offset + y over the first columns y. `add_rows` changes
    the tableau in place; `copy` branches it.
    """

    def __init__(self, T, basis, c, offset):
        self.T = T
        self.basis = basis
        self.c = c  # the nonnegative costs of x
        self.offset = offset

    def copy(self) -> Tableau:
        return Tableau(self.T.copy(), self.basis.copy(), self.c, self.offset)

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
        new[:, : self.c.size] = A
        new[:, n : n + k] = np.eye(k)
        new[:, -1] = b - A @ self.offset
        new -= new[:, self.basis] @ T[:m]
        self.T, self.basis = T, np.concatenate([self.basis, np.arange(n, n + k)])
        return self._optimize()

    def _optimize(self) -> LpResult:
        """One dual-simplex pass from the current dual-feasible basis, then its check."""
        m, n = self.T.shape[0], self.T.shape[1] - 1
        cost = np.zeros(n)
        cost[: self.c.size] = self.c
        status, it = _run_dual_simplex(self.T, self.basis, cost, 10000 + 25 * (m + n),
                                       10 * max(m, 1))
        if status != "optimal":
            return LpResult(status, None, None, it)
        worst = _reduced_costs(self.T, self.basis, cost).min(initial=0.0)
        if worst < -OPT_TOL:
            raise SolverError(f"dual simplex ended with reduced cost {worst:.3g}")
        y = np.zeros(n)
        y[self.basis] = self.T[:, -1]
        x = self.offset + y[: self.c.size]
        return LpResult("optimal", x, float(self.c @ x), it, self)


def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LpResult:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq and box bounds.

    The costs must be nonnegative. `bounds` is a per-variable list of
    (lo, hi), default (0, inf); lo must be finite, hi None means no upper
    bound. Raises ValueError otherwise.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.size
    if np.any(c < 0):
        raise ValueError("costs must be nonnegative")
    A_ub = np.zeros((0, nvar)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    A_eq = np.zeros((0, nvar)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    if bounds is None:
        bounds = [(0.0, None)] * nvar
    if len(bounds) != nvar:
        raise ValueError("bounds length must match the number of variables")
    lo = np.array([np.nan if b[0] is None else float(b[0]) for b in bounds])
    hi = np.array([np.inf if b[1] is None else float(b[1]) for b in bounds])
    if not np.all(np.isfinite(lo)):
        raise ValueError("lower bounds must be finite")

    # The inequalities, the finite upper bounds and each equality as an
    # opposing pair, appended to the empty tableau over y = x - lo >= 0.
    boxed = np.isfinite(hi)
    empty = Tableau(np.zeros((0, nvar + 1)), np.zeros(0, dtype=int), c, lo)
    return empty.add_rows(np.vstack([A_ub, np.eye(nvar)[boxed], A_eq, -A_eq]),
                          np.concatenate([b_ub, hi[boxed], b_eq, -b_eq]))
