"""Convex cones, conic hulls of portfolio feasible sets, and cone projection.

A cone carries a generator form {G' lam : lam >= 0} (generators are rows of
G), a polyhedral form {x : B x >= 0}, or both; a conic hull of a budget and
box Q keeps Q as its base. Every projection runs one Lawson-Hanson NNLS
kernel over the vertex columns P s of a base Q, entering the vertex that a
fractional knapsack prices best (Base.vertex), with one KKT certificate.
ConeProjector only picks the base: the unit simplex under the generators
(its vertices e_j give the columns G_j), else the cone's own base, else the
unit simplex under the polar cone's generators (the negated facets), taking
the Moreau decomposition x = p_K(x) + p_polar(x). nnls over explicit
columns, and so projection onto a polytope (a least-distance program), runs
the kernel over the unit simplex under its matrix.

The kernel is batched over right-hand sides: a stack of points shares one
base, and their active-set steps run in lockstep, so ConeProjector.project
projects a stack (N, d) in about as many numpy calls as one point. Every
row's result carries its own certificate, priced over every vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import ConfigError, SolverError

MEMBER_TOL = 1e-9
NNLS_ENTER_TOL = 1e-12  # dual value, relative to |A| |b|, that lets a column enter
NNLS_CERT_TOL = 1e-9  # KKT residual accepted by the certificate, same scale
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FeasibleRegion:
    """Portfolio constraint system: budget equality, inequality rows, bounds.

    The region is {x : 1'x = capital, A x <= b, lower <= x <= upper}.
    Construction rejects empty regions (checked with an LP probe).
    """

    d: int
    capital: float
    A: np.ndarray = field(default=None)  # (m, d) inequality rows
    b: np.ndarray = field(default=None)  # (m,)
    lower: np.ndarray = field(default=None)  # defaults to 0
    upper: np.ndarray = field(default=None)  # defaults to capital

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise ConfigError("dimension must be >= 1")
        if not np.isfinite(self.capital) or self.capital <= 0:
            raise ConfigError("capital must be a positive real")
        A = np.zeros((0, d)) if self.A is None else np.atleast_2d(np.asarray(self.A, dtype=float))
        bb = np.zeros(0) if self.b is None else np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape != (bb.size, d):
            raise ConfigError("inequality rows and right-hand sides do not match")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(bb)):
            raise ConfigError("inequality rows must be finite")
        lower = 0.0 if self.lower is None else self.lower
        upper = self.capital if self.upper is None else self.upper
        try:  # a scalar bound applies to every asset; + 0.0 copies the read-only view
            lo = np.broadcast_to(np.asarray(lower, dtype=float), d) + 0.0
            up = np.broadcast_to(np.asarray(upper, dtype=float), d) + 0.0
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bounds need a scalar or one entry per asset: {exc}") from exc
        if np.any(lo < 0):
            raise ConfigError("lower bounds must be nonnegative (no short selling)")
        if np.any(lo > up):
            raise ConfigError("lower bounds exceed upper bounds")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "capital", float(self.capital))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", bb)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        probe = lp.solve(np.zeros(d), A_ub=A, b_ub=bb, A_eq=np.ones((1, d)),
                         b_eq=np.array([self.capital]), bounds=list(zip(lo, up)))
        if probe.status == "infeasible":
            raise ConfigError("feasible region is empty")
        if probe.status != "optimal":
            raise SolverError(f"feasibility probe failed: {probe.status}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def with_bounds(self, lower, upper) -> "FeasibleRegion":
        """Same rows, bounds intersected with the given box."""
        return FeasibleRegion(
            self.d,
            self.capital,
            self.A if self.m else None,
            self.b if self.m else None,
            np.maximum(self.lower, lower),
            np.minimum(self.upper, upper),
        )

    @classmethod
    def from_dict(cls, spec: dict) -> "FeasibleRegion":
        try:
            d = int(spec["d"])
            capital = float(spec.get("capital", 1.0))
            rows = spec.get("rows", [])
            A = np.array([r["a"] for r in rows], dtype=float) if rows else None
            b = np.array([r["b"] for r in rows], dtype=float) if rows else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad feasible-region spec: {exc}") from exc
        return cls(d, capital, A, b, spec.get("lower"), spec.get("upper"))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "capital": self.capital,
            "rows": [{"a": a.tolist(), "b": float(bi)} for a, bi in zip(self.A, self.b)],
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


def _clean_generators(G: np.ndarray) -> np.ndarray:
    """Unit-normalize rows, dropping zero rows and duplicate directions."""
    norms = np.linalg.norm(G, axis=1)
    G = G[norms > 1e-12] / norms[norms > 1e-12, None]
    kept: list[np.ndarray] = []
    for row in G:
        if not any(row @ other > 1.0 - 1e-10 for other in kept):
            kept.append(row)
    return np.array(kept) if kept else np.zeros((0, G.shape[1] if G.ndim == 2 else 0))


class Base(NamedTuple):
    """Q = {s : 1's = capital, lower <= s <= upper}, a base of the cone cone{P s : s in Q}.

    The cone is generated by the vertex columns P s, which the NNLS kernel
    enters through vertex(). The unit simplex (lower 0, upper 1, capital 1)
    under a matrix A has the vertices e_j, so its columns are those of A.
    """

    lower: np.ndarray
    upper: np.ndarray
    capital: float
    P: np.ndarray

    def vertex(self, R: np.ndarray) -> np.ndarray:
        """For each row r of R, a vertex s of Q maximizing r'P s: from s = lower,
        the budget left fills coordinates by descending P'r (a fractional knapsack)."""
        order = np.argsort(-(R @ self.P), axis=1)
        width = (self.upper - self.lower)[order]
        fill = np.clip(self.capital - self.lower.sum() - (width.cumsum(axis=1) - width), 0, width)
        S = np.empty_like(fill)
        S[np.arange(len(S))[:, None], order] = fill
        return S + self.lower


@dataclass(frozen=True)
class Cone:
    """Convex cone in generator and/or polyhedral form.

    generators: (k, d), rows are generating rays (stored unit-normalized,
    zero rows and duplicates dropped). facets: (p, d), cone is
    {x : facets @ x >= 0}. At least one form must be present. base: a Base of it, if known.
    """

    d: int
    generators: np.ndarray | None = None
    facets: np.ndarray | None = None
    base: Base | None = None

    def __post_init__(self):
        if self.generators is None and self.facets is None:
            raise ConfigError("cone needs a generator or a facet form")
        if self.generators is not None:
            G = np.atleast_2d(np.asarray(self.generators, dtype=float))
            if G.shape[1] != self.d:
                raise ConfigError("generator rows have the wrong dimension")
            object.__setattr__(self, "generators", _clean_generators(G))
        if self.facets is not None:
            B = np.atleast_2d(np.asarray(self.facets, dtype=float))
            if B.shape[1] != self.d:
                raise ConfigError("facet rows have the wrong dimension")
            B = B[np.linalg.norm(B, axis=1) > 1e-12]
            object.__setattr__(self, "facets", B)

    def to_json(self) -> str:
        doc: dict = {"d": self.d}
        if self.generators is not None:
            doc["generators"] = self.generators.tolist()
        if self.facets is not None:
            doc["facets"] = self.facets.tolist()
        return json.dumps(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "Cone":
        """Cone from a {"d", "generators"?, "facets"?} document (the to_json layout)."""
        try:
            d = int(doc["d"])
            gens, facets = (None if doc.get(key) is None else np.array(doc[key], dtype=float)
                            for key in ("generators", "facets"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad cone document: {exc}") from exc
        return cls(d, gens, facets)

    @classmethod
    def from_json(cls, text: str) -> "Cone":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad cone document: {exc}") from exc
        return cls.from_dict(doc)


def conic_hull(region: FeasibleRegion) -> Cone:
    """Conic hull of the feasible set, in closed polyhedral form.

    Each inequality row (a, b) of the region contributes the facet
    (b/capital) * 1 - a; nontrivial bounds are folded in as rows first
    (x_j <= u_j for u_j < capital, x_j >= l_j for l_j > 0); the positivity
    constraints contribute the identity rows. Without inequality rows the hull
    is cone(Q), Q the budget and the folded bounds, kept as its base; with
    trivial bounds too it is the orthant, and gets the standard basis as generators.
    """
    c = region.capital
    if c <= 0:
        raise ConfigError("capital must be positive")
    d = region.d
    rows = [region.A] if region.m else []
    rhs = [region.b] if region.m else []
    up_idx = np.flatnonzero(region.upper < c - 1e-12)
    if up_idx.size:
        E = np.zeros((up_idx.size, d))
        E[np.arange(up_idx.size), up_idx] = 1.0
        rows.append(E)
        rhs.append(region.upper[up_idx])
    lo_idx = np.flatnonzero(region.lower > 1e-12)
    if lo_idx.size:
        E = np.zeros((lo_idx.size, d))
        E[np.arange(lo_idx.size), lo_idx] = -1.0
        rows.append(E)
        rhs.append(-region.lower[lo_idx])
    base = None
    if not region.m:
        lower, upper = np.zeros(d), np.full(d, c)
        lower[lo_idx], upper[up_idx] = region.lower[lo_idx], region.upper[up_idx]
        base = Base(lower, upper, c, np.eye(d))
    if rows:
        A = np.vstack(rows)
        b = np.concatenate(rhs)
        B = np.vstack([np.outer(b / c, np.ones(d)) - A, np.eye(d)])
        return Cone(d, facets=B, base=base)
    return Cone(d, generators=np.eye(d), facets=np.eye(d), base=base)


def nnls(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """argmin ||A lam - b|| subject to lam >= 0 (Lawson & Hanson 1974, ch. 23).

    B is one right-hand side b (m,) or a stack of them (N, m); the result
    is lam (n,) or one row of lam per row of B (N, n). The kernel runs over
    the unit simplex under A, with the largest column norm of A as its
    scale. Each of its slots holds an exact copy of a column of A, so its
    weight goes to the first such column, and slots that hold one column add up.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    weights, C = _lawson_hanson(*_simplex(A), np.atleast_2d(B))
    hit = (C[:, :, None, :] == A.T).all(axis=3)  # slot k holds an exact copy of A_j
    lam = np.einsum("np,npj->nj", weights, hit & (hit.cumsum(axis=2) == 1))
    return lam[0] if B.ndim == 1 else lam


def _simplex(A: np.ndarray) -> tuple[Base, float]:
    """The unit simplex under A, a base of cone{A_j}, and max_j |A_j|."""
    n = A.shape[1]
    return Base(np.zeros(n), np.ones(n), 1.0, A), float(np.linalg.norm(A, axis=0).max(initial=0.0))


def _lawson_hanson(base: Base, colmax: float, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot weights lam (N, p) and columns C (N, p, m): sum_k lam_k C_k is the
    nearest point of cone{P s : s in Q}, Q = base, to each row b of B (N, m).

    Lawson-Hanson NNLS over the vertex columns P s of Q, generated as needed
    (Von Hohenbalken 1977): each row enters the column base.vertex prices
    best from its residual r, least squares is solved on its passive columns,
    and the step is cut back whenever a passive coefficient would turn
    nonpositive. All rows run in lockstep; their passive columns sit in an
    (N, p, m) stack, p the largest passive count yet. A row stops when its
    priced dual is <= tol * |b| colmax (colmax bounds every |P s|), its priced
    column is already passive, or it enters at a coefficient <= 0, and all
    stop after 3 (n + m) steps, n the coordinates of Q. The pricing is exact
    over every vertex, so every row's KKT residuals certify it, with the
    oracle called afresh: lam >= 0, max_s r'P s <= tol * |b| colmax and
    |lam'C r| <= tol * |b|^2; otherwise SolverError.
    """
    N, m = B.shape
    n = base.P.shape[1]
    bnorm = np.linalg.norm(B, axis=1)
    scale = bnorm * colmax
    ridge = _EPS * colmax * colmax
    C, lam = np.zeros((N, 0, m)), np.zeros((N, 0))  # a column slot is passive while lam > 0
    R, rows = B.copy(), np.arange(N)  # residuals, rows still iterating
    for _ in range(3 * (n + m)):
        Rr, passive = R[rows], lam[rows] > 0.0
        c = base.vertex(Rr) @ base.P.T
        known = ((C[rows] == c[:, None, :]).all(axis=2) & passive).any(axis=1)
        go = (np.einsum("ij,ij->i", Rr, c) > NNLS_ENTER_TOL * scale[rows]) & ~known
        rows, c, passive = rows[go], c[go], passive[go]
        if not rows.size:
            break
        if passive.all(axis=1).any():  # some row has no free slot
            C = np.concatenate([C, np.zeros((N, 1, m))], axis=1)
            lam = np.concatenate([lam, np.zeros((N, 1))], axis=1)
            passive = lam[rows] > 0.0
        j = np.argmin(passive, axis=1)
        C[rows, j] = c
        passive[np.arange(rows.size), j] = True
        x = _passive_solve(C[rows], B[rows], passive, ridge)
        ok = x[np.arange(rows.size), j] > 0.0
        rows, x, passive = rows[ok], x[ok], passive[ok]
        _step_back(lam[rows], x, passive,
                   lambda i, p: _passive_solve(C[rows[i]], B[rows[i]], p, ridge))
        lam[rows] = x
        R[rows] = B[rows] - np.einsum("kp,kpm->km", x, C[rows])
    failed = ((lam.min(axis=1, initial=0.0) < 0.0)
              | (np.einsum("ij,ij->i", R, base.vertex(R) @ base.P.T) > NNLS_CERT_TOL * scale)
              | (np.abs(np.einsum("np,npm,nm->n", lam, C, R)) > NNLS_CERT_TOL * bnorm * bnorm))
    if failed.any():
        raise SolverError(f"NNLS result failed its KKT certificate "
                          f"({int(failed.sum())} of {N} rows)")
    return lam, C


def _step_back(lam, s, passive, solve):
    """Lawson-Hanson's inner loop, in place: while passive coefficients of s are <= 0,
    move lam toward s until one is 0, drop it, and re-solve rows i by solve(i, passive[i])."""
    while True:
        neg = passive & (s <= 0.0)
        back = np.flatnonzero(neg.any(axis=1))
        if not back.size:
            return
        lr, sr, nr = lam[back], s[back], neg[back]
        ratio = np.full(nr.shape, np.inf)
        ratio[nr] = lr[nr] / (lr[nr] - sr[nr])
        k = np.argmin(ratio, axis=1)
        at = np.arange(back.size)
        lr = lr + ratio[at, k][:, None] * (sr - lr)
        lr[at, k] = 0.0
        passive[back] &= lr > 0.0
        lr[~passive[back]] = 0.0
        lam[back] = lr
        s[back] = solve(back, passive[back])


def _passive_solve(C, B, passive, ridge):
    """Least squares of each row of B on its passive columns in C (k, p, m), zero elsewhere.

    The normal equations, with identity rows for the other slots, are solved
    in one batch, and one refinement step on the residual recovers most of
    the accuracy they lose. A ridge on the passive diagonal keeps exactly
    dependent passive columns solvable. Its only measured consumer is
    project_polytope: an equality written as an opposing row pair gives its
    least-distance program two columns that are exact negatives, and near a
    degenerate vertex both can enter (a cone's polar route with such a pair
    certifies without the ridge). After the refinement step the ridge moves
    a well-conditioned solution by O((ridge / lambda_min)^2).
    """
    C = C * passive[..., None]  # other slots: zero columns, identity rows of M
    M = C @ C.transpose(0, 2, 1) + np.where(passive, ridge, 1.0)[:, None, :] * np.eye(C.shape[1])
    try:
        x = np.linalg.solve(M, np.einsum("kpm,km->kp", C, B)[..., None])[..., 0]
        res = B - np.einsum("kp,kpm->km", x, C)
        x += np.linalg.solve(M, np.einsum("kpm,km->kp", C, res)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"NNLS passive system is singular: {exc}") from exc
    return x


class ConeProjector:
    """Reusable projection engine for one cone.

    The route picks the base the NNLS kernel runs over: the unit simplex
    under the cone's generators G' (its vertex columns are the generators),
    else the cone's own base, else the unit simplex under the polar's
    generators, the negated facet rows, whence x0 - p_polar(x0) by the Moreau
    decomposition. prefer="generators" or "facets" forces a simplex route.
    """

    def __init__(self, cone: Cone, prefer: str | None = None):
        self.via_polar = False
        if prefer is None and cone.generators is None and cone.base is not None:
            self.base = cone.base  # every column P s has |P s| <= |P| |s|_1 = |P| capital
            self.colmax = np.linalg.norm(self.base.P, 2) * self.base.capital
            return
        if prefer is None:
            prefer = "generators" if cone.generators is not None else "facets"
        if prefer == "generators":
            if cone.generators is None:
                raise ConfigError("cone has no generator form")
            G = cone.generators
        else:
            if cone.facets is None:
                raise ConfigError("cone has no facet form")
            self.via_polar = True
            G = _clean_generators(-cone.facets)
        self.base, self.colmax = _simplex(G.T)

    def project(self, x0) -> np.ndarray:
        """Nearest cone point to one point (d,), or to each row of a stack (N, d)."""
        x0 = np.asarray(x0, dtype=float)
        if not np.all(np.isfinite(x0)):
            raise ConfigError("cannot project a non-finite point")
        X = np.atleast_2d(x0)
        p = np.einsum("np,npd->nd", *_lawson_hanson(self.base, self.colmax, X))
        return (X - p if self.via_polar else p).reshape(x0.shape)


def project_generators(cone: Cone, x0) -> np.ndarray:
    """Project x0 onto a finitely generated cone.

    With generators as rows of G, the nearest point is G' lam* where
    lam* = argmin ||G' lam - x0|| over lam >= 0.
    """
    return ConeProjector(cone, prefer="generators").project(x0)


def project_polyhedral(cone: Cone, x0) -> np.ndarray:
    """Project x0 onto {x : B x >= 0} through the polar cone.

    The polar of the facet cone is generated by the negated facet rows, so
    p_K(x0) = x0 - p_polar(x0) by the Moreau decomposition. Reuses the same
    NNLS core; no facet enumeration of the primal cone is ever needed.
    """
    return ConeProjector(cone, prefer="facets").project(x0)


def cone_member(cone: Cone, x, tol: float = MEMBER_TOL) -> bool:
    """Membership test: facet inequalities when available, projection residual otherwise."""
    x = np.asarray(x, dtype=float)
    if cone.facets is not None:
        if cone.facets.shape[0] == 0:
            return True
        return bool(np.min(cone.facets @ x) >= -tol)
    return bool(np.linalg.norm(x - project_generators(cone, x)) <= tol)


def project_polytope(y, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : G x <= h} as a least-distance program.

    With v = x - y the problem is min ||v|| s.t. -G v >= G y - h, which
    Lawson & Hanson (ch. 23) solve with one NNLS: for E = [-G' ; (G y - h)']
    and u = nnls(E, e_{d+1}), the residual r = E u - e_{d+1} gives
    v = -r[:d] / r[d]. Equalities enter as opposing row pairs. An empty
    polytope (r = 0) or a result outside it raises SolverError.
    """
    y = np.asarray(y, dtype=float)
    f = G @ y - h
    if np.all(f <= 0.0):
        return y.copy()
    d = y.size
    E = np.vstack([-G.T, f])
    e = np.zeros(d + 1)
    e[d] = 1.0
    r = E @ nnls(E, e) - e
    if r[d] >= 0.0:
        raise SolverError("polytope is empty")
    x = y - r[:d] / r[d]
    if np.any(G @ x > h + NNLS_CERT_TOL * (1.0 + np.abs(h).max())):
        raise SolverError("polytope is empty or its projection failed")
    return x


def transform(cone: Cone, P: np.ndarray) -> Cone:
    """The image cone P K for a nonsingular matrix P.

    Generator rows and a base's columns map through P; facet rows become B P^{-1}.
    """
    gens = cone.generators @ P.T if cone.generators is not None else None
    facets = None
    if cone.facets is not None:
        facets = np.linalg.solve(P.T, cone.facets.T).T  # B P^{-1}
    return Cone(cone.d, gens, facets, cone.base and cone.base._replace(P=P @ cone.base.P))
