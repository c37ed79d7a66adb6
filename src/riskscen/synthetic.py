"""Seeded synthetic market data for tests and self-contained experiment runs.

Real index data cannot ship with the repo, so experiments can point at a
synthetic universe instead: correlated monthly returns with equity-like
drifts, volatilities, and a positive-leaning two-factor correlation
structure, plus a left-skewed heavy-tailed scenario generator for the
case-study problem.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .distributions import ScenarioSet, atomic_write, save_scenarios
from .seeding import rng_from


def _market_covariance(rng, d):
    """Equity-like covariance: a shared positive market factor, one signed
    style factor, idiosyncratic noise."""
    market = rng.uniform(0.5, 1.2, size=d)
    style = rng.normal(size=d) * 0.45
    idio = rng.uniform(0.4, 0.9, size=d)
    cov_f = np.outer(market, market) + np.outer(style, style) + np.diag(idio**2)
    scale = np.sqrt(np.diag(cov_f))
    corr = cov_f / np.outer(scale, scale)
    vols = rng.uniform(0.04, 0.11, size=d)  # monthly
    return corr * np.outer(vols, vols), vols


def synthetic_returns(d: int, months: int, seed: int, family: str = "normal",
                      nu: float = 4.0):
    """(tickers, returns) for a d-asset universe over `months` rows."""
    rng = rng_from(seed)
    sigma, _ = _market_covariance(rng, d)
    mu = rng.uniform(0.002, 0.012, size=d)
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((months, d))
    if family == "student-t":
        w = rng.chisquare(nu, months)
        z = z / np.sqrt(w / nu)[:, None] * np.sqrt((nu - 2.0) / nu)
    returns = mu + z @ chol.T
    tickers = [f"A{j + 1:02d}" for j in range(d)]
    return tickers, returns


def write_synthetic_returns(path, d: int, months: int, seed: int,
                            family: str = "normal", nu: float = 4.0) -> Path:
    path = Path(path)
    tickers, returns = synthetic_returns(d, months, seed, family, nu)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(tickers)
    for row in returns:
        writer.writerow([repr(float(v)) for v in row])
    atomic_write(path, buf.getvalue())
    return path


def skewed_scenarios(d: int, n: int, seed: int, nu: float = 4.0) -> ScenarioSet:
    """Equal-weight scenario set with heavy left tails (non-elliptical).

    A t(nu) core plus a common half-normal crash shock whose loadings differ
    by asset; downside outcomes are both heavier and more correlated than
    the elliptical fit would suggest, which is the stress the surrogate risk
    region has to survive.
    """
    rng = rng_from(seed)
    sigma, vols = _market_covariance(rng, d)
    mu = rng.uniform(0.003, 0.014, size=d)
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((n, d))
    w = rng.chisquare(nu, n)
    core = (z / np.sqrt(w / nu)[:, None]) @ chol.T
    crash_loading = rng.uniform(1.0, 2.0, size=d) * vols
    shock = rng.exponential(1.0, size=n) - 1.0  # centered so the drift stays mu
    points = mu + core - np.outer(shock, crash_loading)
    return ScenarioSet.equally_weighted(points)


def write_skewed_scenarios(path, d: int, n: int, seed: int, nu: float = 4.0) -> Path:
    path = Path(path)
    save_scenarios(skewed_scenarios(d, n, seed, nu), path)
    return path
