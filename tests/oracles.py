"""Independent brute-force oracles used by the test suite.

Nothing here may call the solver paths it checks: projections come from
active-set enumeration or scipy's NNLS, risk membership from dense
directional grids, tail functions from scipy quadrature/bisection, LP optima
from grid search with a Nelder-Mead polish or from the full
Rockafellar-Uryasev LP solved sparse by HiGHS (a MILP under a support
limit), and exact elliptical optima from multi-start SLSQP.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy import integrate, optimize


# ---------------------------------------------------------------------------
# feasible regions


def in_region(region, x, tol: float = 1e-8) -> bool:
    """Whether x meets every constraint of a FeasibleRegion to within tol:
    the budget, the bounds and the inequality rows."""
    x = np.asarray(x, dtype=float)
    return bool(
        abs(x.sum() - region.capital) <= tol
        and np.all(x >= region.lower - tol)
        and np.all(x <= region.upper + tol)
        and (region.m == 0 or np.all(region.A @ x <= region.b + tol))
    )


# ---------------------------------------------------------------------------
# cone projection oracles


def project_polyhedral_oracle(B: np.ndarray, points: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Projection onto {x : Bx >= 0} by enumerating active facet subsets.

    For every subset S the candidate is the projection onto the nullspace of
    B_S; the feasible candidate nearest to each input point is the answer.
    """
    B = np.asarray(B, dtype=float)
    B = B / np.linalg.norm(B, axis=1, keepdims=True)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    best = np.zeros_like(pts)
    best_dist = np.full(n, np.inf)
    m = B.shape[0]
    for r in range(m + 1):
        for S in itertools.combinations(range(m), r):
            if S:
                Bs = B[list(S)]
                M = np.eye(d) - Bs.T @ np.linalg.pinv(Bs @ Bs.T) @ Bs
            else:
                M = np.eye(d)
            cand = pts @ M.T
            feas = np.all(cand @ B.T >= -tol, axis=1)
            dist = np.linalg.norm(cand - pts, axis=1)
            better = feas & (dist < best_dist)
            best[better] = cand[better]
            best_dist[better] = dist[better]
    return best


def project_generators_oracle(G: np.ndarray, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Projection onto cone{rows of G} by enumerating support subsets."""
    G = np.asarray(G, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    best = np.zeros_like(pts)  # empty support: the origin
    best_dist = np.linalg.norm(pts, axis=1)
    k = G.shape[0]
    for r in range(1, k + 1):
        for S in itertools.combinations(range(k), r):
            Gs = G[list(S)]
            H = np.linalg.pinv(Gs @ Gs.T)
            lam = pts @ Gs.T @ H.T
            cand = lam @ Gs
            ok = np.all(lam >= -tol, axis=1)
            dist = np.linalg.norm(cand - pts, axis=1)
            better = ok & (dist < best_dist - 0.0)
            best[better] = cand[better]
            best_dist[better] = dist[better]
    return best


def project_polyhedral_nnls_oracle(B: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Projection onto {x : Bx >= 0} as x - p_polar(x), with scipy's NNLS on
    the polar cone generated by the negated facet rows."""
    At = -np.asarray(B, dtype=float).T
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([x - At @ optimize.nnls(At, x)[0] for x in pts])


# ---------------------------------------------------------------------------
# directional risk-membership oracle


def cone_direction_grid(d: int, facets: np.ndarray | None, step: float) -> np.ndarray:
    """Dense grid of unit directions inside an orthant-contained cone."""
    if d == 2:
        theta = np.arange(0.0, math.pi / 2 + step, step)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    elif d == 3:
        u = np.arange(0.0, math.pi / 2 + step, step)
        v = np.arange(0.0, math.pi / 2 + step, step)
        uu, vv = np.meshgrid(u, v)
        dirs = np.column_stack([
            (np.cos(uu) * np.sin(vv)).ravel(),
            (np.sin(uu) * np.sin(vv)).ravel(),
            np.cos(vv).ravel(),
        ])
    else:
        raise ValueError("direction grid implemented for d = 2, 3")
    dirs = dirs[np.linalg.norm(dirs, axis=1) > 1e-12]
    if facets is not None:
        dirs = dirs[np.all(dirs @ facets.T >= 0.0, axis=1)]
    return dirs


def directional_risk_scores(points, mu, factor, dirs) -> np.ndarray:
    """max over grid directions x of (-x'(y - mu)) / ||P x|| per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    denom = np.linalg.norm(dirs @ factor.T, axis=1)
    scores = np.full(pts.shape[0], -np.inf)
    chunk = max(1, int(2e7 // max(dirs.shape[0], 1)))  # cap the block matrix size
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        vals = (mu - block) @ dirs.T / denom
        scores[start : start + chunk] = vals.max(axis=1)
    return scores


# ---------------------------------------------------------------------------
# univariate tail oracles (quadrature + bisection; no closed forms)


def _density(family: str, nu: float | None):
    if family == "normal":
        return lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    c = math.exp(math.lgamma(0.5 * (nu + 1)) - math.lgamma(0.5 * nu)) / math.sqrt(nu * math.pi)
    return lambda z: c * (1 + z * z / nu) ** (-0.5 * (nu + 1))


def quantile_oracle(family: str, beta: float, nu: float | None = None) -> float:
    """Bisection on a quadrature CDF."""
    f = _density(family, nu)

    def cdf(z):
        val, _ = integrate.quad(f, -np.inf, z, limit=200)
        return val

    lo, hi = -60.0, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < beta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cvar_oracle(family: str, beta: float, nu: float | None = None) -> float:
    """(1/(1-beta)) * integral of the quantile function over (beta, 1].

    Computed as the equivalent tail integral of z f(z) above the oracle
    quantile (change of variables u = F(z)).
    """
    q = quantile_oracle(family, beta, nu)
    f = _density(family, nu)
    val, _ = integrate.quad(lambda z: z * f(z), q, np.inf, limit=200)
    return val / (1.0 - beta)


# ---------------------------------------------------------------------------
# simplex grid-search oracle for scenario CVaR optima


def _simplex_grid(d: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    pts = []
    for combo in itertools.combinations(range(ticks + d - 1), d - 1):
        parts = np.diff((-1,) + combo + (ticks + d - 1,)) - 1
        pts.append(parts)
    return np.asarray(pts, dtype=float) * step


def grid_search_cvar(points: np.ndarray, probs: np.ndarray, beta: float,
                     step: float = 0.01) -> tuple[np.ndarray, float]:
    """Best discrete CVaR over the budget simplex lattice (vectorized)."""
    X = _simplex_grid(points.shape[1], step)
    losses = -(points @ X.T)  # (n_scen, n_grid)
    order = np.argsort(losses, axis=0)
    sorted_losses = np.take_along_axis(losses, order, axis=0)
    cum = np.cumsum(probs[order], axis=0)
    idx = (cum >= beta - 1e-12).argmax(axis=0)
    var = sorted_losses[idx, np.arange(X.shape[0])]
    gt = losses > var[None, :]
    p_le = 1.0 - (probs[:, None] * gt).sum(axis=0)
    tail = (probs[:, None] * np.where(gt, losses, 0.0)).sum(axis=0)
    cvars = (tail + var * (p_le - beta)) / (1.0 - beta)
    j = int(np.argmin(cvars))
    return X[j], float(cvars[j])


def var_at(points, probs, beta, x) -> float:
    """beta-VaR of -x'y: the first loss, in stable ascending order, whose
    cumulative mass reaches beta - 1e-12 (the largest loss if none does).

    Each prefix of the sorted masses is summed by math.fsum, which is
    correctly rounded, so the prefix sums never fall as the prefix grows, and
    a bisection over prefix lengths finds the first that reaches the target.
    """
    losses = -(points @ x)
    order = np.argsort(losses, kind="stable")
    mass = probs[order].tolist()
    lo, hi = 0, losses.size  # fsum(mass[:lo]) < target; hi reaches it, or is n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.fsum(mass[:mid]) >= beta - 1e-12:
            hi = mid
        else:
            lo = mid
    return float(losses[order[hi - 1]])


def cvar_at(points, probs, beta, x) -> float:
    losses = -(points @ x)
    var = var_at(points, probs, beta, x)
    gt = losses > var
    p_le = 1.0 - probs[gt].sum()
    return (probs[gt] @ losses[gt] + var * (p_le - beta)) / (1.0 - beta)


def tail_subgradient_at(points, probs, beta, x) -> np.ndarray:
    """-(w'Y)/(1-beta) with w = p above var_at, and the leftover tail mass
    spread over the losses equal to it in proportion to p."""
    losses = -(points @ x)
    var = var_at(points, probs, beta, x)
    w = np.where(losses > var, probs, 0.0)
    at = losses == var
    left, mass = (1.0 - beta) - w.sum(), probs[at].sum()
    if mass > 0 and left > 0:
        w = w + at * (probs * left / mass)
    return -(w @ points) / (1.0 - beta)


def simplex_cvar_oracle(points: np.ndarray, probs: np.ndarray, beta: float,
                        step: float = 0.01) -> float:
    """Grid search then Nelder-Mead polish; independent of any LP code."""
    x0, best = grid_search_cvar(points, probs, beta, step)
    d = points.shape[1]

    def objective(u):
        x = np.concatenate([u, [1.0 - u.sum()]])
        if np.any(x < -1e-12):
            return best + 10.0 + 1e3 * float(np.maximum(-x, 0).sum())
        return cvar_at(points, probs, beta, np.maximum(x, 0.0))

    val = best
    for scale in (0.02, 0.004, 0.0005):
        res = optimize.minimize(
            objective, x0[:-1], method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000,
                     "initial_simplex": x0[:-1] + scale * np.vstack([np.zeros(d - 1), np.eye(d - 1)])},
        )
        if res.fun < val:
            val = float(res.fun)
            x0 = np.concatenate([res.x, [1.0 - res.x.sum()]])
    return val


def ru_lp_oracle(points, probs, beta, lower, upper, mu, tau=None, lam=1.0,
                 capital=1.0, max_assets=None) -> float | None:
    """Optimum of the Rockafellar-Uryasev LP by scipy's HiGHS, or None if infeasible.

    min lam*CVaR - (1-lam)*mu'x over {1'x = capital, lower <= x <= upper}
    and, with tau given, mu'x >= tau; columns [x (d), alpha, u (n)] with
    u_s >= -y_s'x - alpha. Tolerances are tightened to 1e-10. With
    max_assets given, binary columns z (d) join, with x <= upper * z and
    sum(z) <= max_assets, and scipy's MILP solves the model to relative gap
    1e-12.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    c = np.concatenate([-(1.0 - lam) * np.asarray(mu, dtype=float), [lam],
                        lam * np.asarray(probs) / (1.0 - beta)])
    A_ub = sp.hstack([sp.csr_matrix(-points), -np.ones((n, 1)), -sp.eye(n)], format="csr")
    b_ub = np.zeros(n)
    if tau is not None:
        A_ub = sp.vstack([A_ub, sp.csr_matrix(np.concatenate([-mu, np.zeros(n + 1)])[None, :])],
                         format="csr")
        b_ub = np.append(b_ub, -tau)
    A_eq = sp.csr_matrix(np.concatenate([np.ones(d), np.zeros(n + 1)])[None, :])
    if max_assets is not None:
        return _ru_milp(c, A_ub, b_ub, A_eq, capital, lower, upper, max_assets)
    bounds = list(zip(lower, upper)) + [(None, None)] + [(0, None)] * n
    res = optimize.linprog(c, A_ub, b_ub, A_eq, [capital], bounds, method="highs",
                           options={"primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def _ru_milp(c, A_ub, b_ub, A_eq, capital, lower, upper, max_assets) -> float | None:
    """The model of ru_lp_oracle with a binary z_j per asset appended to the columns."""
    d, m = len(upper), c.size
    pad = sp.csr_matrix((A_ub.shape[0], d))
    link = sp.hstack([sp.eye(d), sp.csr_matrix((d, m - d)), -sp.diags(np.asarray(upper, float))])
    count = sp.csr_matrix(np.concatenate([np.zeros(m), np.ones(d)])[None, :])
    rows = sp.vstack([sp.hstack([A_ub, pad]), link, count], format="csr")
    constraints = [
        optimize.LinearConstraint(rows, -np.inf, np.concatenate([b_ub, np.zeros(d), [max_assets]])),
        optimize.LinearConstraint(sp.hstack([A_eq, sp.csr_matrix((1, d))]), capital, capital),
    ]
    n = m - d - 1
    lo = np.concatenate([lower, [-np.inf], np.zeros(n), np.zeros(d)])
    hi = np.concatenate([upper, [np.inf], np.full(n, np.inf), np.ones(d)])
    res = optimize.milp(np.concatenate([c, np.zeros(d)]), constraints=constraints,
                        integrality=np.concatenate([np.zeros(m), np.ones(d)]),
                        bounds=optimize.Bounds(lo, hi), options={"mip_rel_gap": 1e-12})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP ended with status {res.status}: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# exact elliptical optimum oracle


def elliptical_objective_oracle(P, mu, weight, capital, lower, upper, A=None, b=None,
                                tau=None, starts: int = 5) -> tuple[float, np.ndarray]:
    """min weight*||P x|| - mu'x over {1'x = capital, lower <= x <= upper,
    A x <= b, mu'x >= tau}, by multi-start SLSQP from Dirichlet points."""
    P = np.asarray(P, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = mu.size

    def f(x):
        return weight * np.linalg.norm(P @ x) - x @ mu

    cons = [{"type": "eq", "fun": lambda x: x.sum() - capital}]
    if A is not None and len(A):
        cons.append({"type": "ineq", "fun": lambda x: b - A @ x})
    if tau is not None:
        cons.append({"type": "ineq", "fun": lambda x: x @ mu - tau})
    rng = np.random.default_rng(0)
    best = None
    for _ in range(starts):
        res = optimize.minimize(f, capital * rng.dirichlet(np.ones(d)), method="SLSQP",
                                bounds=list(zip(lower, upper)), constraints=cons,
                                options={"ftol": 1e-15, "maxiter": 2000})
        if res.success and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise RuntimeError("SLSQP converged from no start")
    return float(best.fun), best.x
