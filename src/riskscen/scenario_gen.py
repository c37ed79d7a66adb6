"""Aggregation sampling and aggregation reduction.

Aggregation sampling draws from the target distribution until a requested
number of risk scenarios has been seen, folding every non-risk draw into a
running mean that becomes one final scenario. Raw draws are never stored;
points are pulled from the RNG in fixed-size chunks so a second pass with
the same seed can rebuild the exact raw stream (see raw_stream), which the
consistency checks rely on. Draws from an empirical source take their
atom's verdict from the region (see classify_draws), which classifies all
of a scenario file's atoms when it first meets the file.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .distributions import ScenarioSet
from .errors import ConfigError
from .risk_region import RiskRegion, aggregate, classify_draws, classify_mask
from .seeding import rng_from

CHUNK = 512


@dataclass(frozen=True)
class AggSampleReport:
    """One aggregation-sampling run: the set plus its draw accounting.

    effective_sample_size is the total number of raw draws consumed; the
    set always holds n_risk + 1 scenarios (the last one is the aggregated
    point, or a fresh draw when no non-risk point ever appeared).
    center_in_risk records that the aggregated point was classified risk
    (the fresh draw is not checked). The non-risk set {y : ||p_{K'}(-z)|| <
    cutoff} is convex, so this only happens through rounding at its boundary.
    """

    scenarios: ScenarioSet
    n_risk: int
    n_nonrisk: int
    effective_sample_size: int
    seed: int
    center_in_risk: bool = False


def raw_stream(sampler, seed: int, n_draws: int) -> np.ndarray:
    """First n_draws points of the chunked stream aggregation sampling consumes."""
    rng = rng_from(seed)
    out = []
    got = 0
    while got < n_draws:
        pts = sampler.draw(rng, CHUNK)
        out.append(pts)
        got += pts.shape[0]
    return np.vstack(out)[:n_draws]


def aggregation_sampling(region: RiskRegion, sampler, n_risk_target: int, seed: int) -> AggSampleReport:
    """Sample until n_risk_target risk scenarios, aggregating the rest.

    Risk scenarios keep draw order and get uniform weight
    1/(n_nonrisk + n_risk); the aggregated scenario carries the remaining
    mass. When the loop ends without a single non-risk draw, one extra point
    is drawn as the final scenario and counted like a non-risk draw.
    """
    if n_risk_target < 1:
        raise ConfigError("need a positive risk-scenario target")
    if sampler.d != region.d:
        raise ConfigError("sampler dimension does not match the region")
    rng = rng_from(seed)
    d = region.d
    risk_points: list[np.ndarray] = []
    n_risk = 0
    n_nonrisk = 0
    center = np.zeros(d)
    while n_risk < n_risk_target:  # every chunk is whole; only the last is cut short
        pts, mask = classify_draws(region, sampler, rng, CHUNK)
        need = n_risk_target - n_risk
        cum = np.cumsum(mask)
        if cum[-1] >= need:
            take = int(np.searchsorted(cum, need)) + 1
        else:
            take = pts.shape[0]
        taken, tmask = pts[:take], mask[:take]
        if tmask.any():
            risk_points.append(taken[tmask])
            n_risk += int(tmask.sum())
        k = int((~tmask).sum())
        if k:
            center = (n_nonrisk * center + taken[~tmask].sum(axis=0)) / (n_nonrisk + k)
            n_nonrisk += k

    center_in_risk = False
    if n_nonrisk == 0:
        center = pts[take] if take < len(pts) else sampler.draw(rng, CHUNK)[0]
        n_nonrisk = 1
    elif classify_mask(region, center[None, :])[0]:
        center_in_risk = True
        logging.getLogger(__name__).warning(
            "aggregated point landed in the risk region; consistency conditions may fail"
        )

    total = n_risk + n_nonrisk
    points = np.vstack(risk_points + [center[None, :]])
    probs = np.concatenate([np.full(n_risk, 1.0 / total), [n_nonrisk / total]])
    scen = ScenarioSet(points, probs)
    return AggSampleReport(scen, n_risk, n_nonrisk, total, int(seed), center_in_risk)


aggregation_reduction = aggregate  # the paper's name for collapsing an existing set


def expected_effective_sample_size(n: int, q: float) -> float:
    """Expected raw draws for n risk scenarios when the non-risk mass is q."""
    if not 0.0 <= q < 1.0:
        raise ConfigError("non-risk probability must lie in [0, 1)")
    return n / (1.0 - q)
