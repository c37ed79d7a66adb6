"""Risk-region membership, batch classification, and scenario aggregation.

An outcome y is "risk" when some feasible portfolio puts it in the upper
beta-tail of its loss. For elliptical returns this reduces to a cone
projection in spherical coordinates: with z = P^{-T}(y - mu) and K' = P K,

    y is risk  <=>  || p_{K'}(-z) || >= q_beta,

where q_beta is the spherical beta-quantile. Boundary ties (within 1e-9)
count as risk, which never invalidates aggregation. Aggregation collapses
all non-risk scenarios of a set into their probability-weighted mean.

Batch classification projects as few points as it can: each projection
v = p + w (Moreau) leaves a unit ray of K' and one of its polar, and these
bound ||p_{K'}(v')|| from both sides for every later point v'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import Cone, ConeProjector, transform
from .distributions import (EllipticalDistribution, EmpiricalDistribution, ScenarioSet,
                            spherical_quantile)
from .errors import ConfigError
from .seeding import rng_from

BOUNDARY_TOL = 1e-9
_BATCH = 128  # points per batched projection in classify_mask
_ARCHIVE_CAP = 1024  # entries kept per array of a region's archive
_DOMINANCE_BLOCK = 1 << 16  # point-entry pairs screened at once


@dataclass(frozen=True)
class RiskRegion:
    """Elliptical risk region for a feasible-set conic hull at level beta.

    `image_cone` and `cutoff`, computed from the other fields, are the image
    P K of the cone under the distribution's factor P and threshold -
    BOUNDARY_TOL, the least ||p_{K'}(-z)|| of a risk point. Each region also
    keeps the archive of rays (and, for cones inside the orthant, non-risk
    points) that classify_mask fills and reuses across calls, and the risk
    mask of every atom of the last scenario set classify_draws met. Both are
    caches and never change a verdict.
    """

    dist: EllipticalDistribution
    cone: Cone
    beta: float
    threshold: float = None

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise ConfigError("beta must be a tail level in (0.5, 1)")
        if self.cone.d != self.dist.d:
            raise ConfigError("cone and distribution dimensions differ")
        q = spherical_quantile(self.dist.family, self.beta, self.dist.nu)
        if self.threshold is None:
            object.__setattr__(self, "threshold", q)
        object.__setattr__(self, "cutoff", self.threshold - BOUNDARY_TOL)
        object.__setattr__(self, "image_cone", transform(self.cone, self.dist.factor))
        object.__setattr__(self, "_projector", ConeProjector(self.image_cone))
        object.__setattr__(self, "_dominance", _cone_in_orthant(self.cone))
        object.__setattr__(self, "_archive", _RayArchive(self.image_cone))
        object.__setattr__(self, "_atoms", [None, None])  # scenario set, risk mask per atom

    @property
    def d(self) -> int:
        return self.dist.d

    def spherical_coords(self, points: np.ndarray) -> np.ndarray:
        """z = P^{-T} (y - mu), one row per point."""
        Y = np.atleast_2d(np.asarray(points, dtype=float))
        if Y.shape[1] != self.d:
            raise ConfigError(f"points have {Y.shape[1]} coordinates, the region has {self.d}")
        return np.linalg.solve(self.dist.factor.T, (Y - self.dist.mu).T).T

    def projection_norm(self, y) -> float:
        """||p_{K'}(-z)|| of one finite point, the value compared against the cutoff."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ConfigError("membership test needs a finite point")
        z = self.spherical_coords(y[None, :])[0]
        return float(np.linalg.norm(self._projector.project(-z)))


def is_risk(region: RiskRegion, y) -> bool:
    return region.projection_norm(y) >= region.cutoff


def _cone_in_orthant(cone: Cone) -> bool:
    """Detect K subset of the nonnegative orthant (enables dominance shortcuts)."""
    if cone.generators is not None and cone.generators.shape[0] > 0:
        if np.all(cone.generators >= -1e-12):
            return True
    if cone.facets is not None and cone.facets.shape[0] > 0:
        B = cone.facets
        nz = np.abs(B) > 1e-12
        unit = (nz.sum(axis=1) == 1)[:, None] & (B > 0)
        return bool(unit.any(axis=0).all())
    return False


def _below_any(Y: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Rows of Y that are componentwise <= some row of E.

    Compares one coordinate at a time over blocks of point-entry pairs, so
    temporaries stay at _DOMINANCE_BLOCK booleans.
    """
    hit = np.zeros(Y.shape[0], dtype=bool)
    if E.shape[0] == 0:
        return hit
    step = max(1, _DOMINANCE_BLOCK // E.shape[0])
    for s in range(0, Y.shape[0], step):
        block = Y[s : s + step]
        below = block[:, 0, None] <= E[:, 0]
        for k in range(1, Y.shape[1]):
            below &= block[:, k, None] <= E[:, k]
        hit[s : s + step] = below.any(axis=1)
    return hit


def _max_dot(V: np.ndarray, E: np.ndarray) -> np.ndarray:
    """max_j V_i . E_j for each row of V (-inf without entries), blocked so
    the product holds at most _DOMINANCE_BLOCK point-entry pairs."""
    out = np.full(V.shape[0], -np.inf)
    if E.shape[0] == 0:
        return out
    step = max(1, _DOMINANCE_BLOCK // E.shape[0])
    for s in range(0, V.shape[0], step):
        out[s : s + step] = (V[s : s + step] @ E.T).max(axis=1)
    return out


def _unit_rows_in(U: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Which unit rows of U lie in {x : rows @ x >= 0} to 1e-12 (all, without rows)."""
    if rows is None or rows.shape[0] == 0:
        return np.ones(U.shape[0], dtype=bool)
    return (U @ rows.T).min(axis=1) >= -1e-12


def _append(entries: np.ndarray, new: np.ndarray) -> np.ndarray:
    room = _ARCHIVE_CAP - entries.shape[0]
    return np.vstack([entries, new[:room]]) if room > 0 and new.size else entries


class _RayArchive:
    """What earlier projections certify about K' = P K, for one region.

    By the Moreau decomposition v = p_{K'}(v) + w with w in the polar cone
    K'o and p'w = 0. Any unit u in K' gives u'v <= ||p_{K'}(v)||, and any
    unit w in K'o gives ||p_{K'}(v)|| = dist(v, K'o) <= sqrt(||v||^2 -
    max(0, w'v)^2). So the archive keeps
      - kray: unit rays of K': the cone's generators, then p/||p|| of each
        projected risk point;
      - polar: unit rays of K'o: the negated facet rows (the halfspace
        bound), then w/||w|| of each projected point with ||w|| > 1e-6 ||v||;
      - nonrisk: non-risk points; when K is inside the orthant the loss
        -x'y is monotone in y, so a point >= one of them is non-risk.
    On the generator route the NNLS builds p from the generators of K', on
    the polar route it builds w from those of K'o. The other ray is kept
    only if it lies in its cone to 1e-12 by the facets (rays of K') or the
    generators (rays of K'o), far inside the 1e-9 margin classify_mask
    leaves. So the archive is a cache: verdicts never change, and each
    array stops growing at _ARCHIVE_CAP entries.
    """

    def __init__(self, image_cone: Cone):
        d = image_cone.d
        F, G = image_cone.facets, image_cone.generators
        self.kray_test = F  # K' = {x : F x >= 0}
        self.polar_test = None if G is None else -G  # K'o = {w : -G w >= 0}
        self.kray = np.empty((0, d)) if G is None else G
        F = np.empty((0, d)) if F is None else F
        self.polar = -F / np.linalg.norm(F, axis=1)[:, None]
        self.nonrisk = np.empty((0, d))

    def add(self, Y: np.ndarray, V: np.ndarray, P: np.ndarray, risk: np.ndarray,
            dominance: bool) -> None:
        """Archive a projected batch: points Y, v = -z, p = p_{K'}(v), verdicts."""
        pnorm = np.linalg.norm(P, axis=1)
        ray = risk & (pnorm > 0.0)
        U = P[ray] / pnorm[ray, None]
        self.kray = _append(self.kray, U[_unit_rows_in(U, self.kray_test)])
        W = V - P
        wnorm = np.linalg.norm(W, axis=1)
        keep = wnorm > 1e-6 * np.linalg.norm(V, axis=1)
        W = W[keep] / wnorm[keep, None]
        self.polar = _append(self.polar, W[_unit_rows_in(W, self.polar_test)])
        if dominance:
            self.nonrisk = _append(self.nonrisk, Y[~risk])


def classify_mask(region: RiskRegion, points, use_shortcuts: bool = True) -> np.ndarray:
    """Boolean risk mask for a batch of points; identical to pointwise is_risk.

    With v = -z, exact shortcuts, none of which can change the partition:
      - ||v|| below the cutoff implies non-risk (projection is non-expansive);
      - the rays of K' and of its polar in the region's archive bound
        ||p_{K'}(v)|| from below and above (see _RayArchive); a bound that
        clears the cutoff by 1e-9 (1 + ||v||) decides the point;
      - when K is inside the orthant, a point >= an archived non-risk point
        is non-risk.
    The remaining points are projected _BATCH at a time in draw order; each
    batch joins the archive, and the rest are screened against only what it
    added, keeping each point's running bounds.
    """
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    n = Y.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if not np.all(np.isfinite(Y)):
        raise ConfigError("classification needs finite points")
    cutoff = region.cutoff
    V = -region.spherical_coords(Y)
    risk = np.zeros(n, dtype=bool)
    if not use_shortcuts:
        for s in range(0, n, _BATCH):
            P = region._projector.project(V[s : s + _BATCH])
            risk[s : s + _BATCH] = np.linalg.norm(P, axis=1) >= cutoff
        return risk

    vnorm = np.linalg.norm(V, axis=1)
    archive = region._archive
    margin = 1e-9 * (1.0 + vnorm)
    risk_at = cutoff + margin  # risk once the lower bound reaches this
    lo = cutoff - margin  # non-risk once sqrt(||v||^2 - g^2) falls below lo,
    safe_at = np.where(lo > 0.0, vnorm * vnorm - lo * lo, np.inf)  # that is g^2 > safe_at
    lb = np.full(n, -np.inf)  # running max of u'v over K' rays
    g = np.zeros(n)  # running max of max(0, w'v) over polar rays
    seen_k = seen_p = seen_n = 0  # archive entries every pending point was screened against
    pending = np.flatnonzero(vnorm >= cutoff)  # the rest is non-risk
    while pending.size:
        Vp = V[pending]
        lb[pending] = np.maximum(lb[pending], _max_dot(Vp, archive.kray[seen_k:]))
        g[pending] = np.maximum(g[pending], _max_dot(Vp, archive.polar[seen_p:]))
        up = lb[pending] >= risk_at[pending]
        risk[pending[up]] = True
        down = g[pending] ** 2 > safe_at[pending]
        pending = pending[~(up | down)]
        if region._dominance:
            pending = pending[~_below_any(-Y[pending], -archive.nonrisk[seen_n:])]
        seen_k, seen_p, seen_n = (archive.kray.shape[0], archive.polar.shape[0],
                                  archive.nonrisk.shape[0])
        batch, pending = pending[:_BATCH], pending[_BATCH:]
        if not batch.size:
            break
        P = region._projector.project(V[batch])
        risk[batch] = np.linalg.norm(P, axis=1) >= cutoff
        archive.add(Y[batch], V[batch], P, risk[batch], region._dominance)
    return risk


def classify_draws(region: RiskRegion, sampler, rng: np.random.Generator, n: int):
    """n draws from sampler and their risk mask, as classify_mask gives it.

    A draw from an EmpiricalDistribution copies an atom and takes that atom's
    verdict. When the region first meets a scenario set it classifies all of
    its atoms in one classify_mask call, in file order, and keeps the mask
    until another set arrives; every draw is then a lookup.
    """
    if not isinstance(sampler, EmpiricalDistribution):
        pts = sampler.draw(rng, n)
        return pts, classify_mask(region, pts)
    scen = sampler.scenarios
    if region._atoms[0] is not scen:
        region._atoms[:] = [scen, classify_mask(region, scen.points)]
    idx = sampler.draw_indices(rng, n)
    return scen.points[idx], region._atoms[1][idx]


def classify_batch(region: RiskRegion, scenarios: ScenarioSet):
    """Partition scenario indices into (risk, non-risk)."""
    mask = classify_mask(region, scenarios.points)
    idx = np.arange(scenarios.n)
    return idx[mask], idx[~mask]


def aggregate(region: RiskRegion, scenarios: ScenarioSet) -> ScenarioSet:
    """Keep risk scenarios, collapse the rest into their weighted mean.

    The aggregated point carries the total non-risk probability, so the
    weighted mean of the output equals that of the input. Returns the input
    unchanged when nothing is classified non-risk.
    """
    mask = classify_mask(region, scenarios.points)
    if mask.all():
        return scenarios
    pts, pr = scenarios.points, scenarios.probs
    nonrisk_mass = float(pr[~mask].sum())
    if nonrisk_mass <= 0.0:
        return ScenarioSet(pts[mask], pr[mask] / pr[mask].sum())
    center = pr[~mask] @ pts[~mask] / nonrisk_mass
    new_pts = np.vstack([pts[mask], center[None, :]])
    new_pr = np.concatenate([pr[mask], [nonrisk_mass]])
    return ScenarioSet(new_pts, new_pr)


def estimate_nonrisk_prob(region: RiskRegion, n: int, seed: int, sampler=None) -> float:
    """Monte Carlo estimate of the non-risk probability.

    Draws from the region's own distribution unless a sampler (for example
    an empirical distribution) is supplied.
    """
    if n < 1:
        raise ConfigError("need at least one sample")
    src = region.dist if sampler is None else sampler
    _, mask = classify_draws(region, src, rng_from(seed), n)
    return float((~mask).sum() / n)

