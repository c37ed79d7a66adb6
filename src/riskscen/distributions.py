"""Elliptical return models, tail functions, and discrete scenario sets.

Supported families are the multivariate Normal and Student-t (nu > 2): a
random return is Y = P' X + mu with X spherical, so every portfolio loss is
a scaled univariate tail plus a location shift. The univariate quantile and
CVaR are implemented from scratch: each quantile is one bisection of its CDF
down to adjacent doubles, and the tests check the tail functions against
quadrature oracles.

Scenario sets are weighted discrete distributions persisted as CSV with a
leading `prob` column.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .seeding import rng_from

NORMAL = "normal"
STUDENT_T = "student-t"

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# univariate tail functions


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _symmetric_quantile(cdf, p: float) -> float:
    """The p-quantile of a continuous law symmetric about 0, by bisection on `cdf`.

    Works on the lower tail mass m = min(p, 1 - p), which is exact in
    floating point: hi doubles until cdf(-hi) <= m, then [lo, hi] halves
    until lo and hi are adjacent doubles. The bracket certifies the answer,
    cdf(-hi) <= m < cdf(-lo), with no tolerance; p = 0.5 gives exactly 0.0.
    """
    if not 0.0 < p < 1.0:
        raise ConfigError("quantile level must be in (0, 1)")
    m = min(p, 1.0 - p)
    if m == 0.5:
        return 0.0
    lo, hi = 0.0, 1.0
    while cdf(-hi) > m:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if cdf(-mid) > m:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi if p > 0.5 else -hi


def normal_quantile(p: float) -> float:
    return _symmetric_quantile(normal_cdf, p)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise ConfigError("incomplete beta continued fraction failed to converge")


# Stirling's series lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi) / 2) = sum_k c_k x^-(2k+1);
# from x = 10 the first term left out is below 3e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log_inv_beta(a: float, b: float) -> float:
    """ln(1 / B(a, b)); from q = max(a, b) = 10 on, the large lgamma(p + q) - lgamma(q)
    comes from Stirling's series, whose (x - 1/2) ln x - x parts cancel in closed form."""
    if max(a, b) < 10.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    p, q = min(a, b), max(a, b)
    tail = sum(c * ((p + q) ** -k - q ** -k) for k, c in zip(range(1, 14, 2), _STIRLING))
    return (q - 0.5) * math.log1p(p / q) + p * math.log(p + q) - p + tail - math.lgamma(p)


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = _log_inv_beta(a, b) + a * math.log(x) + b * math.log(1.0 - x)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_pdf(x: float, nu: float) -> float:
    ln = (math.lgamma(0.5 * (nu + 1)) - math.lgamma(0.5 * nu)
          - 0.5 * math.log(nu * math.pi)
          - 0.5 * (nu + 1) * math.log1p(x * x / nu))
    return math.exp(ln)


def t_cdf(x: float, nu: float) -> float:
    x2 = x * x
    w = x2 / (nu + x2)
    # P(T <= -|x|) = I_z(nu/2, 1/2) / 2 with z = 1 - w; where betainc_reg would take that
    # from 1 - z, which rounding spoils near x = 0, use I_w(1/2, nu/2) = 1 - I_z instead
    if w < 3.0 / (nu + 5.0):
        tail = 0.5 - 0.5 * betainc_reg(0.5, 0.5 * nu, w)
    else:
        tail = 0.5 * betainc_reg(0.5 * nu, 0.5, nu / (nu + x2))
    return 1.0 - tail if x > 0 else tail


def t_quantile(p: float, nu: float) -> float:
    return _symmetric_quantile(lambda x: t_cdf(x, nu), p)


def _check_family(family: str, nu: float | None) -> float | None:
    if family == NORMAL:
        return None
    if family == STUDENT_T:
        if nu is None or not nu > 2:
            raise ConfigError("student-t needs nu > 2 so the covariance exists")
        return float(nu)
    raise ConfigError(f"unknown family {family!r}")


@functools.lru_cache
def spherical_quantile(family: str, beta: float, nu: float | None = None) -> float:
    """beta-quantile of the first coordinate of the spherical driver (memoized)."""
    if not 0.0 < beta < 1.0:
        raise ConfigError("beta must be in (0, 1)")
    nu = _check_family(family, nu)
    if family == NORMAL:
        return normal_quantile(beta)
    return t_quantile(beta, nu)


@functools.lru_cache
def spherical_cvar(family: str, beta: float, nu: float | None = None) -> float:
    """beta-CVaR of the spherical driver's first coordinate, in closed form (memoized)."""
    if not 0.0 < beta < 1.0:
        raise ConfigError("beta must be in (0, 1)")
    nu = _check_family(family, nu)
    q = spherical_quantile(family, beta, nu)
    if family == NORMAL:
        return normal_pdf(q) / (1.0 - beta)
    return t_pdf(q, nu) * (nu + q * q) / ((1.0 - beta) * (nu - 1.0))


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class EllipticalDistribution:
    """Normal or Student-t return model: Y = factor' X + mu, Sigma = factor' factor."""

    family: str
    mu: np.ndarray
    factor: np.ndarray
    nu: float | None = None

    def __post_init__(self):
        nu = _check_family(self.family, self.nu)
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        P = np.atleast_2d(np.asarray(self.factor, dtype=float))
        if P.shape != (mu.size, mu.size):
            raise ConfigError("factor must be square and match the location dimension")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(P))):
            raise ConfigError("distribution parameters must be finite")
        if np.linalg.cond(P) >= 1e12:
            raise ConfigError("factor is numerically singular")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "factor", P)
        object.__setattr__(self, "nu", nu)

    @property
    def d(self) -> int:
        return self.mu.size

    @property
    def mean(self) -> np.ndarray:
        return self.mu.copy()

    def covariance(self) -> np.ndarray:
        sigma = self.factor.T @ self.factor
        if self.family == STUDENT_T:
            return self.nu / (self.nu - 2.0) * sigma
        return sigma

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.d))
        if self.family == STUDENT_T:
            w = rng.chisquare(self.nu, n)
            z = z / np.sqrt(w / self.nu)[:, None]
        return z @ self.factor + self.mu

    def tail_quantile(self, beta: float) -> float:
        return spherical_quantile(self.family, beta, self.nu)

    def tail_cvar(self, beta: float) -> float:
        return spherical_cvar(self.family, beta, self.nu)


@dataclass(frozen=True)
class ScenarioSet:
    """Weighted discrete distribution {(y_s, p_s)}."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pr = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if pts.shape[0] != pr.size:
            raise ConfigError("points and probabilities do not match")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("scenario outcomes must be finite")
        if np.any(pr < 0) or not np.all(np.isfinite(pr)):
            raise ConfigError("scenario probabilities must be finite and nonnegative")
        if abs(pr.sum() - 1.0) > 1e-12:
            raise ConfigError(f"scenario probabilities sum to {pr.sum()!r}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.probs @ self.points

    @classmethod
    def equally_weighted(cls, points) -> "ScenarioSet":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Resampling (with replacement) view of a scenario set.

    A draw copies one of the set's atoms, chosen by its probability;
    draw_indices gives the atoms and draw their points from the same stream,
    so a risk region can classify all atoms at once and look up every draw.
    """

    scenarios: ScenarioSet

    @property
    def d(self) -> int:
        return self.scenarios.d

    @property
    def mean(self) -> np.ndarray:
        return self.scenarios.mean()

    def draw_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.scenarios.n, size=n, p=self.scenarios.probs)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scenarios.points[self.draw_indices(rng, n)]


def sample(dist, n: int, rng_seed: int) -> ScenarioSet:
    """Equally weighted i.i.d. sample; deterministic for a fixed seed."""
    if n < 1:
        raise ConfigError("sample size must be >= 1")
    rng = rng_from(rng_seed)
    return ScenarioSet.equally_weighted(dist.draw(rng, n))


def portfolio_loss_stats(dist: EllipticalDistribution, x, beta: float):
    """Exact (VaR, CVaR, expected return) of the loss -x'Y for elliptical Y.

    The loss is ||P x|| X_1 - x'mu in distribution, so both tail measures are
    the spherical ones scaled by ||P x|| and shifted by the expected return.
    It is the one owner of this closed form. Its caller is cvar_opt._risk,
    the elliptical risk oracle of the exact solver (solve_exact_elliptical),
    of SAA's final pick (saa._screen_candidates) and of the stability
    experiment's true gaps (experiments._stability_cell).
    """
    x = np.asarray(x, dtype=float)
    scale = float(np.linalg.norm(dist.factor @ x))
    mean_return = float(x @ dist.mu)
    var = scale * dist.tail_quantile(beta) - mean_return
    cvar = scale * dist.tail_cvar(beta) - mean_return
    return var, cvar, mean_return


# ---------------------------------------------------------------------------
# estimation and persistence


def fit_from_returns(returns, family: str, nu: float = 4.0, weights=None) -> EllipticalDistribution:
    """Moment-based fit of an elliptical model to return rows.

    Normal: mu = sample mean, factor = upper Cholesky of the sample
    covariance. Student-t(nu): the factor is scaled by sqrt((nu-2)/nu) so the
    implied covariance still matches the sample. `returns` may be an (n, d)
    array or a path to a returns CSV (ticker header row, decimal returns).
    A singular covariance gets one 1e-10 ridge retry, then fails.
    """
    if isinstance(returns, (str, Path)):
        returns = load_returns_csv(returns)[1]
    R = np.atleast_2d(np.asarray(returns, dtype=float))
    n, d = R.shape
    if not np.all(np.isfinite(R)):
        raise ConfigError("returns contain missing or non-finite values")
    if weights is None:
        if n < d + 2:
            raise ConfigError(f"need at least {d + 2} return rows for {d} assets")
        mu = R.mean(axis=0)
        S = np.cov(R, rowvar=False, ddof=1).reshape(d, d)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        mu = w @ R
        C = R - mu
        S = (C * w[:, None]).T @ C
    if np.any(np.diag(S) <= 0):
        raise ConfigError("singular sample covariance (constant column)")
    nu_checked = _check_family(family, nu if family == STUDENT_T else None)
    scale = (nu_checked - 2.0) / nu_checked if family == STUDENT_T else 1.0
    try:
        P = np.linalg.cholesky(scale * S).T
    except np.linalg.LinAlgError:
        try:
            P = np.linalg.cholesky(scale * S + 1e-10 * np.eye(d)).T
        except np.linalg.LinAlgError as exc:
            raise ConfigError("sample covariance is not positive definite") from exc
    return EllipticalDistribution(family, mu, P, nu_checked)


def read_csv(path, header: bool = True) -> tuple[list[str] | None, np.ndarray]:
    """Numeric CSV: an optional header row, then rows of floats of one width.

    Returns (header or None, (n, width) array). Blank lines are skipped. A
    ragged row or a non-numeric or non-finite field raises ConfigError naming
    path:line, as does a file that cannot be opened or decoded.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lines = (row for row in reader if row and (len(row) > 1 or row[0].strip()))
            names = next(lines, None) if header else None
            if header and names is None:
                raise ConfigError(f"{path}: empty file")
            width = None if names is None else len(names)
            rows = []
            for row in lines:  # convert as we go: string rows would cost a second copy
                width = width or len(row)
                if len(row) != width:
                    raise ConfigError(f"{path}:{reader.line_num}: expected {width} fields, "
                                      f"got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
                if not all(map(math.isfinite, rows[-1])):
                    raise ConfigError(f"{path}:{reader.line_num}: non-finite field")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return names, np.asarray(rows, dtype=float)


def atomic_write(path, text: str) -> None:
    """Write `text` as UTF-8, line endings as given, through a renamed temporary file.

    `path` then holds either its old content or all of the new one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


load_returns_csv = read_csv  # returns CSV: ticker header row, one row of decimal returns per month


def write_csv(path, header: list[str], rows) -> None:
    """Header row, then rows of floats by repr, so read_csv reloads them bit-identically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    atomic_write(path, buf.getvalue())


def save_scenarios(scenarios: ScenarioSet, path) -> None:
    """Write `prob,y1..yd` CSV, the format load_scenarios reads."""
    write_csv(path, ["prob"] + [f"y{j + 1}" for j in range(scenarios.d)],
              ([p, *y] for p, y in zip(scenarios.probs, scenarios.points)))


def load_scenarios(path) -> ScenarioSet:
    """Scenario CSV as written by save_scenarios: a `prob` column, then the outcomes."""
    header, data = read_csv(path)
    if header[0].strip().lower() != "prob":
        raise ConfigError(f"{path}:1: first column must be 'prob'")
    pr = data[:, 0].copy()
    if np.any(pr < 0):
        raise ConfigError(f"{path}: negative scenario probability")
    if abs(pr.sum() - 1.0) > 1e-9:
        raise ConfigError(f"{path}: probabilities sum to {pr.sum()}, expected 1")
    if abs(pr.sum() - 1.0) > 1e-12:
        pr = pr / pr.sum()  # absorb sub-1e-9 rounding so the set invariant holds
    return ScenarioSet(data[:, 1:].copy(), pr)
