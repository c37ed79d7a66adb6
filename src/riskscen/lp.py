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
dual simplex (Lemke, Naval Res. Logistics Q. 1 (1954)), on a condensed
tableau: one column per nonbasic variable and the rhs, so nvar + 1 columns
however many rows it gains. `Tableau.add_rows` appends inequality rows,
whose basic slacks keep every reduced cost nonnegative, and runs it; `solve`
appends every row to an empty tableau, so it runs from the all-slack basis,
and returns the optimal tableau. Leaving row: most negative rhs; entering
column: smallest ratio of reduced cost to |row entry|, ties broken by the
largest |pivot|, then the lowest label; after a sustained run of degenerate
pivots (10x the row count) both choices switch to Bland's lowest label,
which cannot cycle.
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
    """Jordan exchange: row's basic variable leaves, col's nonbasic one enters."""
    p = float(T[row, col])
    T[row] /= p
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, T[row])
    T[:, col] = colv * (-1.0 / p)  # what a full pivot makes of the leaving unit column
    T[row, col] = 1.0 / p


def _reduced_costs(T, basic, nonbasic, c) -> np.ndarray:
    return c[nonbasic] - c[basic] @ T[:, :-1]


def _run_dual_simplex(T, basic, nonbasic, c, maxiter, bland_after):
    """Dual-simplex pivots on a dual-feasible tableau until the rhs is >= 0.

    T is condensed (see Tableau) and c is indexed by label. Stops when every
    basic value is >= -DUAL_STOP_TOL; a row below -FEAS_TOL with no negative
    entry proves the LP infeasible, one above it is rounding and is left
    until the next pivot.
    """
    m, n = T.shape[0], T.shape[1] - 1
    degen_run = 0
    bland = False
    stuck = np.zeros(m, dtype=bool)
    for it in range(maxiter):
        rhs = np.where(stuck, 0.0, T[:, n])
        neg = np.flatnonzero(rhs < -DUAL_STOP_TOL)
        if neg.size == 0:
            return "optimal", it
        leave = int(neg[np.argmin(basic[neg] if bland else rhs[neg])])
        row = T[leave, :n]
        cand = row < -FEAS_TOL
        if not cand.any():
            if rhs[leave] < -FEAS_TOL:
                return "infeasible", it
            stuck[leave] = True
            continue
        r = _reduced_costs(T, basic, nonbasic, c)
        ratios = np.full(n, np.inf)
        ratios[cand] = np.maximum(r[cand], 0.0) / -row[cand]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + OPT_TOL * (1.0 + abs(best)))
        if ties.size > 1 and not bland:  # the largest |pivot| first, then the lowest label
            ties = ties[row[ties] == row[ties].min()]
        enter = int(ties[np.argmin(nonbasic[ties])] if ties.size > 1 else ties[0])
        if best <= OPT_TOL:
            degen_run += 1
            if degen_run > bland_after:
                bland = True
        else:
            degen_run = 0
            bland = False
        _pivot(T, leave, enter)
        basic[leave], nonbasic[enter] = nonbasic[enter], basic[leave]
        stuck[:] = False
    return "iteration-limit", maxiter


class Tableau:
    """The tableau of an LP in standard form, kept to re-optimize after new rows.

    T is m x (nvar + 1), one column per nonbasic variable and the rhs last;
    `basic` and `nonbasic` label the variable of each row and column:
    structural y_j is j, and row i's slack is nvar + i. The original variables
    are x = offset + y. `add_rows` changes the tableau in place; `copy`
    branches it.
    """

    def __init__(self, T, basic, nonbasic, c, offset):
        self.T = T
        self.basic = basic
        self.nonbasic = nonbasic
        self.c = c  # the nonnegative costs of x
        self.offset = offset

    def copy(self) -> Tableau:
        return Tableau(self.T.copy(), self.basic.copy(), self.nonbasic.copy(), self.c, self.offset)

    def add_rows(self, A, b) -> LpResult:
        """Append the rows A x <= b (original variables) and re-optimize.

        Each new row gets a basic slack, expressed in the current basis; its
        value may be negative, which the dual simplex repairs. An infeasible
        or unfinished re-solve leaves the tableau unusable.
        """
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        k, m, nvar = A.shape[0], self.T.shape[0], self.c.size
        full = np.concatenate([A, np.zeros((k, m))], axis=1)  # no entry on an old slack
        new = np.concatenate([full[:, self.nonbasic], (b - A @ self.offset)[:, None]], axis=1)
        structural = self.basic < nvar
        new -= A[:, self.basic[structural]] @ self.T[structural]
        self.T = np.concatenate([self.T, new])
        self.basic = np.concatenate([self.basic, np.arange(nvar + m, nvar + m + k)])
        return self._optimize()

    def _optimize(self) -> LpResult:
        """One dual-simplex pass from the current dual-feasible basis, then its check."""
        m, nvar = self.T.shape[0], self.c.size
        cost = np.concatenate([self.c, np.zeros(m)])  # a slack costs nothing
        status, it = _run_dual_simplex(self.T, self.basic, self.nonbasic, cost,
                                       10000 + 25 * (2 * m + nvar), 10 * max(m, 1))
        if status != "optimal":
            return LpResult(status, None, None, it)
        worst = _reduced_costs(self.T, self.basic, self.nonbasic, cost).min(initial=0.0)
        if worst < -OPT_TOL:
            raise SolverError(f"dual simplex ended with reduced cost {worst:.3g}")
        y = np.zeros(nvar + m)
        y[self.basic] = self.T[:, -1]
        x = self.offset + y[:nvar]
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
    empty = Tableau(np.zeros((0, nvar + 1)), np.zeros(0, dtype=int), np.arange(nvar), c, lo)
    return empty.add_rows(np.vstack([A_ub, np.eye(nvar)[boxed], A_eq, -A_eq]),
                          np.concatenate([b_ub, hi[boxed], b_eq, -b_eq]))
