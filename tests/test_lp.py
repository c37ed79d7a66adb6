"""Embedded dual-simplex solver against scipy and hand-checked cases."""

import numpy as np
import pytest
from scipy.optimize import linprog

from riskscen import lp
from riskscen.errors import SolverError


def test_simple_minimum():
    # min x + 2y st x + y >= 1, x,y >= 0  -> value 1 at (1, 0)
    res = lp.solve([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_equality_and_bounds():
    # min x1 st x1 + x2 = 1, 0 <= x <= 0.7
    res = lp.solve([1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                   bounds=[(0, 0.7), (0, 0.7)])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.3, 0.7], abs=1e-9)


def test_infeasible():
    res = lp.solve([1.0], A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])
    assert res.status == "infeasible"


@pytest.mark.parametrize("c, kwargs", [
    # the bounds sum 1e-8 short of the equality
    ([1.0, 0.0], dict(A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0, 0.5), (0, 0.5 - 1e-8)])),
    # a row 5e-8 below what x >= 0 allows
    ([0.0, 0.0], dict(A_ub=[[1.0, 1.0]], b_ub=[-5e-8])),
    # a lower bound 1e-8 above the upper one
    ([0.0], dict(bounds=[(0.5 + 1e-8, 0.5)])),
], ids=["bounds-short-of-equality", "row-below-bounds", "crossed-bounds"])
def test_infeasible_by_a_hair(c, kwargs):
    assert lp.solve(c, **kwargs).status == "infeasible"


def test_duplicated_equality_row():
    c = [1.0, 2.0, 0.5]
    A_eq = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, 1.0]]
    b_eq = [1.0, 0.2, 1.0]
    bounds = [(0, 1)] * 3
    ref = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    res = lp.solve(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert res.x == pytest.approx(ref.x, abs=1e-9)


def test_rejects_negative_costs_and_missing_lower_bounds():
    with pytest.raises(ValueError, match="nonnegative"):
        lp.solve([1.0, -1e-12], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="finite"):
        lp.solve([1.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], bounds=[(0, 1), (None, 1)])
    with pytest.raises(ValueError, match="finite"):
        lp.solve([0.0], bounds=[(-np.inf, None)])


def test_negative_reduced_cost_at_the_end_raises():
    # A tableau doctored to carry a negative cost: the appended row is slack,
    # so the dual simplex stops at once, and the check sees x2's reduced cost.
    tab = lp.solve([1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0]).tableau
    tab.c = np.array([1.0, -1.0])
    with pytest.raises(SolverError, match="reduced cost"):
        tab.add_rows([[1.0, 0.0]], [5.0])


def test_degenerate_rhs_zero_rows():
    # Many tight rows at the origin, which the budget row sum(x) >= 1 moves
    # off: the degenerate dual pivots still terminate. This LP ends before
    # the switch to Bland's rule; the tests below reach it.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 5))
    A *= -np.sign(A.sum(axis=1, keepdims=True))  # every row holds on the ray x = s * 1
    A = np.vstack([A, -np.ones(5)])
    b = np.append(np.zeros(40), -1.0)
    c = np.abs(rng.normal(size=5))
    res = lp.solve(c, A_ub=A, b_ub=b, bounds=[(0, 1)] * 5)
    ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, 1)] * 5, method="highs")
    assert res.status == "optimal" and res.iterations > 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)


def _slack_tableau(A, b):
    """The condensed all-slack tableau [A | b] of A y <= b, y >= 0, and its labels."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    return np.hstack([A, np.asarray(b, dtype=float)[:, None]]), np.arange(n, n + m), np.arange(n)


@pytest.mark.parametrize("trial", range(8))
def test_bland_rule_dual_pass_matches_scipy_verdict(trial):
    """Zero costs make every dual pivot degenerate, so bland_after=0 runs it all under Bland."""
    rng = np.random.default_rng(5000 + trial)
    A = rng.normal(size=(5, 3))
    b = rng.normal(size=5) - 0.5
    T, basic, nonbasic = _slack_tableau(A, b)
    status, _ = lp._run_dual_simplex(T, basic, nonbasic, np.zeros(8), 1000, 0)
    ref = linprog(np.zeros(3), A_ub=A, b_ub=b, method="highs")
    assert status == {0: "optimal", 2: "infeasible"}[ref.status]
    if status == "optimal":
        y = np.zeros(8)
        y[basic] = T[:, -1]
        assert np.all(A @ y[:3] <= b + 1e-9) and np.all(y >= -1e-12)


def test_dual_pass_leaves_a_rounding_row_stuck_not_infeasible():
    # rhs -1e-11 is below DUAL_STOP_TOL but above -FEAS_TOL, and the row has
    # no negative entry to pivot on: rounding, not an infeasibility proof.
    T = np.array([[1.0, -1e-11]])
    assert lp._run_dual_simplex(T, np.array([1]), np.array([0]), np.zeros(2), 100, 0)[0] == "optimal"


def _full_tableau_pass(A, b, c, bland_after):
    """The reference dual simplex on the full tableau [A | I | b], where every
    variable keeps its column: the same rules and tolerances as
    lp._run_dual_simplex. Returns (status, iterations, basis, rhs)."""
    m, n = A.shape
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis, c = np.arange(n, n + m), np.append(c, np.zeros(m))
    degen_run, bland, stuck = 0, False, np.zeros(m, dtype=bool)
    for it in range(1000):
        rhs = np.where(stuck, 0.0, T[:, -1])
        neg = np.flatnonzero(rhs < -lp.DUAL_STOP_TOL)
        if neg.size == 0:
            return "optimal", it, basis, T[:, -1]
        leave = int(neg[np.argmin(basis[neg] if bland else rhs[neg])])
        row = T[leave, :-1]
        cand = row < -lp.FEAS_TOL
        if not cand.any():
            if rhs[leave] < -lp.FEAS_TOL:
                return "infeasible", it, basis, T[:, -1]
            stuck[leave] = True
            continue
        r = c - c[basis] @ T[:, :-1]
        r[basis] = 0.0
        ratios = np.full(n + m, np.inf)
        ratios[cand] = np.maximum(r[cand], 0.0) / -row[cand]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + lp.OPT_TOL * (1.0 + abs(best)))
        enter = int(ties[0]) if bland else int(ties[np.argmin(row[ties])])
        degen_run = degen_run + 1 if best <= lp.OPT_TOL else 0
        bland = degen_run > bland_after
        T[leave] /= T[leave, enter]
        colv = T[:, enter].copy()
        colv[leave] = 0.0
        T -= np.outer(colv, T[leave])
        basis[leave] = enter
        stuck[:] = False
    return "iteration-limit", 1000, basis, T[:, -1]


@pytest.mark.parametrize("bland_after", [0, 2])
@pytest.mark.parametrize("trial", range(16))
def test_dual_pass_takes_the_full_tableau_pivots(trial, bland_after):
    """Entries in {-1, 0, 1}, zero right-hand sides and, in odd trials, zero
    costs make ratio and pivot ties common, so their order by label is
    exercised under both rules."""
    rng = np.random.default_rng(6000 + trial)
    A = rng.integers(-1, 2, size=(14, 8)).astype(float)
    b = np.where(rng.uniform(size=14) < 0.5, 0.0, rng.integers(-3, 2, size=14).astype(float))
    c = rng.integers(0, 3, size=8).astype(float) * (trial % 2 == 0)
    status, it, basis, rhs = _full_tableau_pass(A, b, c, bland_after)
    T, basic, nonbasic = _slack_tableau(A, b)
    assert lp._run_dual_simplex(T, basic, nonbasic, np.append(c, np.zeros(14)), 1000,
                                bland_after) == (status, it)
    assert np.array_equal(basic, basis)
    assert np.allclose(T[:, -1], rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("trial", range(80))
def test_matches_scipy_on_random_lps(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 9))
    m_ub = int(rng.integers(0, 7))
    m_eq = int(rng.integers(0, 3))
    c = np.abs(rng.normal(size=n)) * (rng.uniform(size=n) < 0.8)
    A_ub = rng.normal(size=(m_ub, n)) if m_ub else None
    b_ub = rng.normal(size=m_ub) + 1 if m_ub else None
    A_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            bounds.append((0.0, None))
        elif kind == 1:
            bounds.append((0.0, float(rng.uniform(0.5, 3))))
        elif kind == 2:
            bounds.append((float(-rng.uniform(0, 2)), None))
        else:
            bounds.append((float(-rng.uniform(0, 2)), float(rng.uniform(0.5, 3))))
    ref = linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs")
    mine = lp.solve(c, A_ub, b_ub, A_eq, b_eq, bounds)
    if ref.status == 0:
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
        if A_ub is not None:
            assert np.all(A_ub @ mine.x <= b_ub + 1e-7)
        if A_eq is not None:
            assert np.allclose(A_eq @ mine.x, b_eq, atol=1e-7)
        lo = np.array([-np.inf if b[0] is None else b[0] for b in bounds])
        hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
        assert np.all((mine.x >= lo - 1e-9) & (mine.x <= hi + 1e-9))
    else:
        # nonnegative costs over finite lower bounds: never unbounded
        assert ref.status == 2
        assert mine.status == "infeasible"


def test_feasible_point_probe():
    """The zero-cost probe FeasibleRegion runs: optimal at a feasible point, or infeasible."""
    res = lp.solve(np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0, 0.6), (0, 0.6)])
    assert res.status == "optimal" and abs(res.x.sum() - 1.0) < 1e-9
    assert lp.solve(np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[2.5],
                    bounds=[(0, 1), (0, 1)]).status == "infeasible"


def _random_master(rng, n=None):
    """A feasible LP shaped like a cutting-plane master: a box on x, a budget
    row, random rows through an interior point, and an epigraph variable t
    (last) with cost e_t, one cut t >= (g + lin)'x and the lower bound on t
    that the cut implies over the budget. n, the size of x, is drawn in
    [2, 6] unless given. Returns the LP and lin."""
    n = int(rng.integers(2, 7)) if n is None else n
    x0 = rng.uniform(0.2, 0.8, size=n)
    lin = rng.normal(size=n) * 0.1
    h0 = rng.normal(size=n) + lin
    bounds = [(0.0, 1.0)] * n + [(x0.sum() * h0.min(), None)]
    c = np.eye(n + 1)[n]
    rows = rng.normal(size=(int(rng.integers(0, 4)), n))
    A_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]), np.append(h0, -1.0)])
    b_ub = np.append(rows @ x0 + rng.uniform(0.0, 0.3, size=rows.shape[0]), 0.0)
    A_eq = np.append(np.ones(n), 0.0)[None, :]
    return (c, A_ub, b_ub, A_eq, np.array([x0.sum()]), bounds), lin


@pytest.mark.parametrize("trial", range(30))
def test_appended_rows_match_scipy(trial):
    rng = np.random.default_rng(3000 + trial)
    (c, A_ub, b_ub, A_eq, b_eq, bounds), lin = _random_master(rng)
    res = lp.solve(c, A_ub, b_ub, A_eq, b_eq, bounds)
    assert res.status == "optimal"
    n = c.size - 1
    branch = (res.tableau.copy(), A_ub, b_ub)
    for step in range(6):
        if step % 2:  # a cut t >= (g + lin)'x
            rows = np.append(rng.normal(size=n) + lin, -1.0)[None, :]
            rhs = np.zeros(1)
        else:  # rows on x through a random box point, often cutting off the optimum
            rows = np.hstack([rng.normal(size=(2, n)), np.zeros((2, 1))])
            rhs = rows[:, :n] @ rng.uniform(0.0, 1.0, size=n) + 0.05
        A_ub, b_ub = np.vstack([A_ub, rows]), np.concatenate([b_ub, rhs])
        res = res.tableau.add_rows(rows, rhs)
        ref = linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs")
        if ref.status == 2:
            assert res.status == "infeasible"
            break
        assert ref.status == 0
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
        assert np.all(A_ub @ res.x <= b_ub + 1e-9)
        assert np.allclose(A_eq @ res.x, b_eq, atol=1e-9)
        assert np.all((res.x[:n] >= -1e-12) & (res.x[:n] <= 1.0 + 1e-12))
    # a copy of the first tableau re-solves as its own LP, untouched by later rows
    tab, A_b, b_b = branch
    row = np.append(np.eye(n)[0], 0.0)[None, :]
    mine = tab.add_rows(row, [0.0])
    ref = linprog(c, np.vstack([A_b, row]), np.append(b_b, 0.0), A_eq, b_eq, bounds, method="highs")
    if ref.status == 0:
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
    else:
        assert mine.status == "infeasible"


def test_appended_row_can_make_the_lp_infeasible():
    # min x1 st x1 + x2 = 1, 0 <= x <= 0.7; then x1 + x2 <= 0.5 empties it
    res = lp.solve([1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0, 0.7), (0, 0.7)])
    assert res.x == pytest.approx([0.3, 0.7], abs=1e-9)
    tab = res.tableau
    assert tab.copy().add_rows([[1.0, 0.0]], [0.5]).status == "optimal"
    assert tab.copy().add_rows([[1.0, 1.0]], [0.5]).status == "infeasible"
    assert tab.add_rows([[-1.0, 0.0]], [-0.6]).x == pytest.approx([0.6, 0.4], abs=1e-9)


def test_tall_tableau_keeps_one_column_per_nonbasic_variable():
    # A master at d = 20 gains 300 random cuts, far more rows than variables;
    # the tableau stays (rows, nvar + 1) and its optimum tracks HiGHS.
    rng = np.random.default_rng(3100)
    (c, A_ub, b_ub, A_eq, b_eq, bounds), lin = _random_master(rng, n=20)
    res = lp.solve(c, A_ub, b_ub, A_eq, b_eq, bounds)
    rows = A_ub.shape[0] + 20 + 2  # the boxed x, and the equality as two rows
    for step in range(1, 301):
        cut = np.append(rng.normal(size=20) + lin, -1.0)
        A_ub, b_ub = np.vstack([A_ub, cut]), np.append(b_ub, 0.0)
        res = res.tableau.add_rows(cut[None, :], [0.0])
        rows += 1
        assert res.status == "optimal"
        if step % 50 == 0:
            ref = linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs")
            assert res.objective == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
            assert res.tableau.T.shape == (rows, c.size + 1)
