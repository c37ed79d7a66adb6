"""Embedded simplex solver against scipy and hand-checked cases."""

import numpy as np
import pytest
from scipy.optimize import linprog

from riskscen import lp


def test_simple_minimum():
    # min -x - y st x + y <= 1, x,y >= 0  -> value -1 on the segment
    res = lp.solve([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_equality_and_bounds():
    # min x1 st x1 + x2 = 1, 0 <= x <= 0.7
    res = lp.solve([1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                   bounds=[(0, 0.7), (0, 0.7)])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.3, 0.7], abs=1e-9)


def test_free_variable_split():
    # min t st t >= x - 1, t >= 1 - x with x fixed: classic |x-1| epigraph
    res = lp.solve([0.0, 1.0], A_ub=[[1.0, -1.0], [-1.0, -1.0]], b_ub=[1.0, -1.0],
                   bounds=[(0.25, 0.25), (None, None)])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.75, abs=1e-9)


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
    c = [1.0, -2.0, 0.5]
    A_eq = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, 1.0]]
    b_eq = [1.0, 0.2, 1.0]
    bounds = [(0, 1)] * 3
    ref = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    res = lp.solve(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert res.x == pytest.approx(ref.x, abs=1e-9)


def test_unbounded():
    res = lp.solve([-1.0], A_ub=None, b_ub=None)
    assert res.status == "unbounded"


def test_degenerate_rhs_zero_rows():
    # Many tight rows at the origin; Bland fallback must still terminate.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 5))
    res = lp.solve(rng.normal(size=5), A_ub=A, b_ub=np.zeros(40),
                   bounds=[(0, 1)] * 5)
    assert res.status == "optimal"


@pytest.mark.parametrize("trial", range(80))
def test_matches_scipy_on_random_lps(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 9))
    m_ub = int(rng.integers(0, 7))
    m_eq = int(rng.integers(0, 3))
    c = rng.normal(size=n)
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
            bounds.append((None, None))
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
    elif ref.status == 2:
        # HiGHS occasionally labels feasible-unbounded models infeasible;
        # accept either as long as we never claim optimal.
        assert mine.status in ("infeasible", "unbounded")
    elif ref.status == 3:
        assert mine.status == "unbounded"


def test_feasible_point_probe():
    x = lp.find_feasible_point(A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0, 0.6), (0, 0.6)])
    assert x is not None and abs(x.sum() - 1.0) < 1e-9
    assert lp.find_feasible_point(A_eq=[[1.0, 1.0]], b_eq=[2.5],
                                  bounds=[(0, 1), (0, 1)]) is None


def _random_master(rng):
    """A feasible, bounded LP shaped like a cutting-plane master: a box on x,
    a budget row, random rows through an interior point, and a free epigraph
    variable t (last) with positive cost and one cut t >= g'x."""
    n = int(rng.integers(2, 7))
    x0 = rng.uniform(0.2, 0.8, size=n)
    bounds = [(0.0, 1.0)] * n + [(None, None)]
    c = np.append(rng.normal(size=n) * 0.1, 1.0)
    rows = rng.normal(size=(int(rng.integers(0, 4)), n))
    A_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]),
                      np.append(rng.normal(size=n), -1.0)])
    b_ub = np.append(rows @ x0 + rng.uniform(0.0, 0.3, size=rows.shape[0]), 0.0)
    A_eq = np.append(np.ones(n), 0.0)[None, :]
    return c, A_ub, b_ub, A_eq, np.array([x0.sum()]), bounds


@pytest.mark.parametrize("trial", range(30))
def test_appended_rows_match_scipy(trial):
    rng = np.random.default_rng(3000 + trial)
    c, A_ub, b_ub, A_eq, b_eq, bounds = _random_master(rng)
    res = lp.solve(c, A_ub, b_ub, A_eq, b_eq, bounds)
    assert res.status == "optimal"
    n = c.size - 1
    branch = (res.tableau.copy(), A_ub, b_ub)
    for step in range(6):
        if step % 2:  # a cut t >= g'x
            rows = np.append(rng.normal(size=n), -1.0)[None, :]
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
