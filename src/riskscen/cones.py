"""Convex cones, conic hulls of portfolio feasible sets, and cone projection.

A cone carries a generator form {G' lam : lam >= 0} (generators are rows of
G), a polyhedral form {x : B x >= 0}, or both. Projection onto a finitely
generated cone is one nonnegative least-squares problem (Lawson-Hanson
NNLS, the only solver routine here); projection onto a polyhedral cone goes
through the polar cone (generated by the negated facet rows) and the Moreau
decomposition x = p_K(x) + p_polar(x); projection onto a polytope is a
least-distance program, solved through the same NNLS.

The NNLS is batched over right-hand sides: a stack of points shares one
matrix, and their active-set steps run in lockstep, so ConeProjector.project
projects a stack (N, d) in about as many numpy calls as one point. Every row's
result carries its own KKT certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Cone:
    """Convex cone in generator and/or polyhedral form.

    generators: (k, d), rows are generating rays (stored unit-normalized,
    zero rows and duplicates dropped). facets: (p, d), cone is
    {x : facets @ x >= 0}. At least one form must be present.
    """

    d: int
    generators: np.ndarray | None = None
    facets: np.ndarray | None = None

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
    constraints contribute the identity rows. With no rows and trivial
    bounds the hull is the nonnegative orthant and the standard basis is
    attached as a generator form as well.
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
    if rows:
        A = np.vstack(rows)
        b = np.concatenate(rhs)
        B = np.vstack([np.outer(b / c, np.ones(d)) - A, np.eye(d)])
        return Cone(d, facets=B)
    return Cone(d, generators=np.eye(d), facets=np.eye(d))


def nnls(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """argmin ||A lam - b|| subject to lam >= 0 (Lawson & Hanson 1974, ch. 23).

    B is one right-hand side b (m,) or a stack of them (N, m); the result
    is lam (n,) or one row of lam per row of B (N, n). Active-set method,
    run for all rows in lockstep, each with its own passive set: the column
    with the largest positive dual w = A'(b - A lam) joins the passive set,
    least squares is solved on the passive columns, and the step is cut
    back whenever a passive coefficient would turn nonpositive. A column
    whose own coefficient comes out nonpositive on entry (roundoff) is
    skipped until lam next moves. Results are only returned once every
    row's KKT residuals certify it: lam >= 0, w <= tol * |A| |b| and
    |lam'w| <= tol * |b|^2; otherwise SolverError.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    single = B.ndim == 1
    B = np.atleast_2d(B)
    n = A.shape[1]
    Q = A.T @ A
    AtB = B @ A
    bnorm = np.linalg.norm(B, axis=1)
    scale = bnorm * float(np.linalg.norm(A, axis=0).max(initial=0.0))
    enter = NNLS_ENTER_TOL * scale[:, None]
    lam = np.zeros((B.shape[0], n))
    passive = np.zeros(lam.shape, dtype=bool)
    skipped = np.zeros(lam.shape, dtype=bool)
    w = AtB.copy()
    for _ in range(3 * n):
        free = (w > enter) & ~(passive | skipped)
        rows = np.flatnonzero(free.any(axis=1))
        if not rows.size:
            break
        j = np.argmax(np.where(free[rows], w[rows], -np.inf), axis=1)
        passive[rows, j] = True
        s = _passive_solve(Q, A, B[rows], AtB[rows], passive[rows])
        bad = s[np.arange(rows.size), j] <= 0.0
        if bad.any():
            passive[rows[bad], j[bad]] = False
            skipped[rows[bad], j[bad]] = True
            rows, s = rows[~bad], s[~bad]
        while True:
            neg = passive[rows] & (s <= 0.0)
            back = np.flatnonzero(neg.any(axis=1))
            if not back.size:
                break
            r, lr, sr, nr = rows[back], lam[rows[back]], s[back], neg[back]
            ratio = np.full(nr.shape, np.inf)
            ratio[nr] = lr[nr] / (lr[nr] - sr[nr])
            k = np.argmin(ratio, axis=1)
            at = np.arange(back.size)
            lr = lr + ratio[at, k][:, None] * (sr - lr)
            lr[at, k] = 0.0
            passive[r] = passive[r] & (lr > 0.0)
            lr[~passive[r]] = 0.0
            lam[r] = lr
            s[back] = _passive_solve(Q, A, B[r], AtB[r], passive[r])
        lam[rows] = s
        w[rows] = (B[rows] - s @ A.T) @ A
        skipped[rows] = False
    failed = ((lam.min(axis=1, initial=0.0) < 0.0)
              | (w.max(axis=1, initial=0.0) > NNLS_CERT_TOL * scale)
              | (np.abs(np.einsum("ij,ij->i", lam, w)) > NNLS_CERT_TOL * bnorm * bnorm))
    if failed.any():
        raise SolverError(f"NNLS result failed its KKT certificate "
                          f"({int(failed.sum())} of {B.shape[0]} rows)")
    return lam[0] if single else lam


def _passive_solve(Q, A, B, AtB, passive):
    """Least squares on each row's passive columns, zero elsewhere.

    Each row's passive columns are gathered to the front of a p x p system
    (p the largest passive count; shorter rows are padded with identity
    rows), all rows are solved in one batch through the Gram matrix A'A, and
    one refinement step on the residual (B - S A')A recovers most of the
    accuracy the normal equations lose. A ridge of eps * max_j |A_j|^2 on
    the passive diagonal keeps exactly dependent passive columns solvable.
    Its only measured consumer is project_polytope: an equality written as
    an opposing row pair gives its least-distance program two columns that
    are exact negatives, and near a degenerate vertex both can enter (a
    cone's polar route with such a pair certifies without the ridge). After
    the refinement step the ridge moves a well-conditioned solution by
    O((ridge / lambda_min)^2).
    """
    count = passive.sum(axis=1)
    p = int(count.max(initial=0))
    cols = np.argsort(~passive, axis=1, kind="stable")[:, :p]
    valid = np.arange(p) < count[:, None]
    rows = np.arange(passive.shape[0])[:, None]
    both = valid[:, :, None] & valid[:, None, :]
    M = np.where(both, Q[cols[:, :, None], cols[:, None, :]], np.eye(p))
    M[:, np.arange(p), np.arange(p)] += _EPS * np.diagonal(Q).max(initial=0.0) * valid
    S = np.zeros(passive.shape)
    try:
        s = np.linalg.solve(M, (AtB[rows, cols] * valid)[..., None])[..., 0]
        S[rows, cols] = s
        s += np.linalg.solve(M, (((B - S @ A.T) @ A)[rows, cols] * valid)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"NNLS passive system is singular: {exc}") from exc
    S[rows, cols] = s
    return S


class ConeProjector:
    """Reusable projection engine for one cone.

    Holds the generator matrix G once (the cone's own, or the polar cone's
    negated facet rows for the Moreau route), so batch classification does
    not rebuild it per call. The nearest point of cone{rows of G} to x0 is
    G' nnls(G', x0); a stack of points is projected in one batched NNLS.
    """

    def __init__(self, cone: Cone, prefer: str | None = None):
        if prefer is None:
            prefer = "generators" if cone.generators is not None else "facets"
        if prefer == "generators":
            if cone.generators is None:
                raise ConfigError("cone has no generator form")
            self.via_polar = False
            self.G = cone.generators
        else:
            if cone.facets is None:
                raise ConfigError("cone has no facet form")
            self.via_polar = True
            self.G = _clean_generators(-cone.facets)
        self.d = cone.d

    def project(self, x0) -> np.ndarray:
        """Nearest cone point to one point (d,), or to each row of a stack (N, d)."""
        x0 = np.asarray(x0, dtype=float)
        if not np.all(np.isfinite(x0)):
            raise ConfigError("cannot project a non-finite point")
        p = nnls(self.G.T, x0) @ self.G
        return x0 - p if self.via_polar else p


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

    Generator rows map through P; facet rows become B P^{-1}.
    """
    gens = cone.generators @ P.T if cone.generators is not None else None
    facets = None
    if cone.facets is not None:
        facets = np.linalg.solve(P.T, cone.facets.T).T  # B P^{-1}
    return Cone(cone.d, gens, facets)
