"""Dense two-phase simplex solver with warm re-solves after appended rows.

The LPs solved here stay small: cutting-plane master problems over the
portfolio weights plus one epigraph variable, and feasibility probes of
portfolio constraint systems. A dense tableau simplex with an explicit basis
is enough and keeps the package dependency-free. Entering variable: most
negative reduced cost, ratio ties broken by largest pivot element; after a
sustained run of degenerate pivots (10x the row count) the solver falls back
to Bland's rule, which cannot cycle.

An optimal `solve` returns its final tableau. `Tableau.add_rows` appends
inequality rows to it and re-optimizes by the dual simplex: the old basis
plus the new rows' slacks keeps every reduced cost nonnegative, so a few
dual pivots restore primal feasibility where a fresh solve would repeat
phase 1.
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
        if bland:
            neg = np.flatnonzero(rhs < -DUAL_STOP_TOL)
            if neg.size == 0:
                return "optimal", it
            leave = int(neg[np.argmin(basis[neg])])
        else:
            leave = int(np.argmin(rhs))
            if rhs[leave] >= -DUAL_STOP_TOL:
                return "optimal", it
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
    """The optimal tableau of a `solve`, kept to re-optimize after new rows.

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
        basis = np.concatenate([self.basis, np.arange(n, n + k)])
        cost = np.zeros(n + k)
        cost[: self.S.shape[1]] = self.c @ self.S
        maxiter = 10000 + 25 * (m + k + n)
        bland_after = 10 * (m + k)
        status, it1 = _run_dual_simplex(T, basis, cost, maxiter, bland_after)
        it2 = 0
        if status == "optimal":
            # Ratio ties within tolerance can leave a reduced cost slightly
            # negative; primal pivots clean it up (usually none).
            status, it2 = _run_simplex(T, basis, cost, maxiter, bland_after)
        self.T, self.basis = T, basis
        if status != "optimal":
            return LpResult(status, None, None, it1 + it2)
        return self.result(it1 + it2)


def solve(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds=None,
    maxiter: int | None = None,
) -> LpResult:
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
    if np.any(lo > hi):
        return LpResult("infeasible", None, None, 0)

    free = ~np.isfinite(lo) & ~np.isfinite(hi)
    ncols = nvar + int(free.sum())
    S = np.zeros((nvar, ncols))
    offset = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    ub_rows = []  # (col index, residual upper bound)
    col = 0
    for j in range(nvar):
        S[j, col] = 1.0 if np.isfinite(lo[j]) or free[j] else -1.0
        if np.isfinite(lo[j]) and np.isfinite(hi[j]):
            ub_rows.append((col, hi[j] - lo[j]))
        if free[j]:
            col += 1
            S[j, col] = -1.0
        col += 1

    Aub_x = A_ub @ S
    bub_x = b_ub - A_ub @ offset
    Aeq_x = A_eq @ S
    beq_x = b_eq - A_eq @ offset
    if ub_rows:
        extra = np.zeros((len(ub_rows), ncols))
        extra_b = np.zeros(len(ub_rows))
        for i, (col, ub) in enumerate(ub_rows):
            extra[i, col] = 1.0
            extra_b[i] = ub
        Aub_x = np.vstack([Aub_x, extra])
        bub_x = np.concatenate([bub_x, extra_b])

    m_ub, m_eq = Aub_x.shape[0], Aeq_x.shape[0]
    m = m_ub + m_eq
    nslack = m_ub

    # Rows: [A_ub | slack I] then [A_eq | 0]; flip rows to rhs >= 0.
    A = np.zeros((m, ncols + nslack))
    rhs = np.zeros(m)
    A[:m_ub, :ncols] = Aub_x
    A[:m_ub, ncols : ncols + nslack] = np.eye(nslack)
    rhs[:m_ub] = bub_x
    A[m_ub:, :ncols] = Aeq_x
    rhs[m_ub:] = beq_x
    flip = rhs < 0
    A[flip] *= -1.0
    rhs[flip] *= -1.0

    # Starting basis: own slack where it still has coefficient +1, else an
    # artificial column (flipped inequality rows and all equality rows).
    needs_art = np.ones(m, dtype=bool)
    basis = np.zeros(m, dtype=int)
    for i in range(m_ub):
        if not flip[i]:
            basis[i] = ncols + i
            needs_art[i] = False
    art_rows = np.flatnonzero(needs_art)
    nart = art_rows.size
    ntot = ncols + nslack + nart
    T = np.zeros((m, ntot + 1))
    T[:, : ncols + nslack] = A
    for k, i in enumerate(art_rows):
        T[i, ncols + nslack + k] = 1.0
        basis[i] = ncols + nslack + k
    T[:, ntot] = rhs

    if maxiter is None:
        maxiter = 10000 + 25 * (m + ncols)
    bland_after = 10 * max(m, 1)
    iters = 0

    if nart:
        c1 = np.zeros(ntot)
        c1[ncols + nslack :] = 1.0
        # Make the dictionary consistent: eliminate basic columns from rows
        # already holds (identity), run phase 1.
        status, it1 = _run_simplex(T, basis, c1, maxiter, bland_after)
        iters += it1
        if status == "iteration-limit":
            return LpResult("iteration-limit", None, None, iters)
        phase1_obj = c1[basis] @ T[:, ntot]
        if phase1_obj > 1e-7:
            return LpResult("infeasible", None, None, iters)
        # Drive leftover artificials out of the basis or drop redundant rows.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= ncols + nslack:
                row = T[i, : ncols + nslack]
                cand = np.flatnonzero(np.abs(row) > 1e-9)
                if cand.size:
                    _pivot(T, i, int(cand[0]))
                    basis[i] = int(cand[0])
                else:
                    keep[i] = False
        T = T[keep]
        basis = basis[keep]
        m = T.shape[0]
    T = np.hstack([T[:, : ncols + nslack], T[:, [ntot]]])

    c2 = np.concatenate([c @ S, np.zeros(nslack)])
    status, it2 = _run_simplex(T, basis, c2, maxiter, bland_after)
    iters += it2
    if status != "optimal":
        return LpResult(status, None, None, iters)
    return Tableau(T, basis, c, S, offset).result(iters)


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
