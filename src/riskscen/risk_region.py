"""Risk-region membership, batch classification, and scenario aggregation.

An outcome y is "risk" when some feasible portfolio puts it in the upper
beta-tail of its loss. For elliptical returns this reduces to a cone
projection in spherical coordinates: with z = P^{-T}(y - mu) and K' = P K,

    y is risk  <=>  || p_{K'}(-z) || >= q_beta,

where q_beta is the spherical beta-quantile. Boundary ties (within 1e-9)
count as risk, which never invalidates aggregation. Aggregation collapses
all non-risk scenarios of a set into their probability-weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import Cone, ConeProjector, transform
from .distributions import EllipticalDistribution, ScenarioSet, spherical_quantile
from .errors import ConfigError
from .seeding import rng_from

BOUNDARY_TOL = 1e-9
_BATCH = 32  # points per batched projection in classify_mask
_ARCHIVE_CAP = 1024  # dominance-archive entries kept per verdict
_DOMINANCE_BLOCK = 1 << 16  # point-entry pairs compared at once


@dataclass(frozen=True)
class RiskRegion:
    """Elliptical risk region for a feasible-set conic hull at level beta.

    Each region also keeps the dominance archive classify_mask fills and
    reuses across calls; it is a cache and never changes a verdict.
    """

    dist: EllipticalDistribution
    cone: Cone
    beta: float
    threshold: float = None
    image_cone: Cone = None

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise ConfigError("beta must be a tail level in (0.5, 1)")
        if self.cone.d != self.dist.d:
            raise ConfigError("cone and distribution dimensions differ")
        q = spherical_quantile(self.dist.family, self.beta, self.dist.nu)
        if self.threshold is None:
            object.__setattr__(self, "threshold", q)
        if self.image_cone is None:
            object.__setattr__(self, "image_cone", transform(self.cone, self.dist.factor))
        object.__setattr__(self, "_projector", ConeProjector(self.image_cone))
        object.__setattr__(self, "_dominance", _cone_in_orthant(self.cone))
        object.__setattr__(self, "_archive", _DominanceArchive(self.dist.d))

    @property
    def d(self) -> int:
        return self.dist.d

    def consistent_threshold(self) -> bool:
        """Whether the stored threshold is the recomputed spherical quantile."""
        return self.threshold == spherical_quantile(self.dist.family, self.beta, self.dist.nu)

    def spherical_coords(self, points: np.ndarray) -> np.ndarray:
        """z = P^{-T} (y - mu), one row per point."""
        Y = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.solve(self.dist.factor.T, (Y - self.dist.mu).T).T

    def projection_norm(self, y) -> float:
        """||p_{K'}(-z)||, the value compared against the threshold."""
        z = self.spherical_coords(np.asarray(y, dtype=float)[None, :])[0]
        return float(np.linalg.norm(self._projector.project(-z)))


def is_risk(region: RiskRegion, y) -> bool:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ConfigError("membership test needs a finite point")
    return region.projection_norm(y) >= region.threshold - BOUNDARY_TOL


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


class _DominanceArchive:
    """Points of known verdict for one region, kept in arrival order.

    When K is inside the orthant the loss -x'y is monotone in y, so a point
    componentwise <= a risk point is risk and one >= a non-risk point is
    non-risk. Dominance is exact, so the archive is a cache: verdicts never
    change, and each side stops growing at _ARCHIVE_CAP entries.
    """

    def __init__(self, d: int):
        self.risk = np.empty((0, d))
        self.nonrisk = np.empty((0, d))

    def add(self, Y: np.ndarray, risk: np.ndarray) -> None:
        self.risk = self._append(self.risk, Y[risk])
        self.nonrisk = self._append(self.nonrisk, Y[~risk])

    @staticmethod
    def _append(entries: np.ndarray, new: np.ndarray) -> np.ndarray:
        room = _ARCHIVE_CAP - entries.shape[0]
        return np.vstack([entries, new[:room]]) if room and new.size else entries


def classify_mask(region: RiskRegion, points, use_shortcuts: bool = True) -> np.ndarray:
    """Boolean risk mask for a batch of points; identical to pointwise is_risk.

    Exact shortcuts, none of which can change the partition:
      - ||z|| below the cutoff implies non-risk (projection is non-expansive);
      - -z already in K' makes the projection trivial;
      - when K is inside the orthant, a point dominated by an entry of the
        region's archive takes that entry's verdict (see _DominanceArchive).
    The remaining points are projected _BATCH at a time in draw order; each
    batch's verdicts join the archive before the rest are screened again.
    """
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    n = Y.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if not np.all(np.isfinite(Y)):
        raise ConfigError("classification needs finite points")
    cutoff = region.threshold - BOUNDARY_TOL
    Z = region.spherical_coords(Y)
    risk = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)

    if use_shortcuts:
        znorm = np.linalg.norm(Z, axis=1)
        below = znorm < cutoff
        decided |= below  # non-risk
        Kp = region.image_cone
        if Kp.facets is not None and Kp.facets.shape[0] > 0:
            inside = np.all((-Z) @ Kp.facets.T >= 0.0, axis=1)
            sel = inside & ~decided
            risk[sel] = znorm[sel] >= cutoff
            decided |= sel

    archive = region._archive if use_shortcuts and region._dominance else None
    seen_risk = seen_nonrisk = 0  # archive entries every pending point was checked against
    pending = np.flatnonzero(~decided)
    while pending.size:
        if archive is not None:
            up = _below_any(Y[pending], archive.risk[seen_risk:])
            risk[pending[up]] = True
            pending = pending[~up]
            pending = pending[~_below_any(-Y[pending], -archive.nonrisk[seen_nonrisk:])]
            seen_risk, seen_nonrisk = archive.risk.shape[0], archive.nonrisk.shape[0]
        batch, pending = pending[:_BATCH], pending[_BATCH:]
        if not batch.size:
            break
        risk[batch] = np.linalg.norm(region._projector.project(-Z[batch]), axis=1) >= cutoff
        if archive is not None:
            archive.add(Y[batch], risk[batch])
    return risk


def classify_batch(region: RiskRegion, scenarios: ScenarioSet, use_shortcuts: bool = True):
    """Partition scenario indices into (risk, non-risk)."""
    mask = classify_mask(region, scenarios.points, use_shortcuts=use_shortcuts)
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
        return ScenarioSet(pts[mask], pr[mask] / pr[mask].sum(), source="aggregated")
    center = pr[~mask] @ pts[~mask] / nonrisk_mass
    new_pts = np.vstack([pts[mask], center[None, :]])
    new_pr = np.concatenate([pr[mask], [nonrisk_mass]])
    return ScenarioSet(new_pts, new_pr, source="aggregated")


def estimate_nonrisk_prob(region: RiskRegion, n: int, seed: int, sampler=None) -> float:
    """Monte Carlo estimate of the non-risk probability.

    Draws from the region's own distribution unless a sampler (for example
    an empirical distribution) is supplied.
    """
    if n < 1:
        raise ConfigError("need at least one sample")
    src = region.dist if sampler is None else sampler
    pts = src.draw(rng_from(seed), n)
    mask = classify_mask(region, pts)
    return float((~mask).sum() / n)

