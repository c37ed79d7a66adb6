"""Elliptical return models, tail functions, and discrete scenario sets.

Supported families are the multivariate Normal and Student-t (nu > 2): a
random return is Y = P' X + mu with X spherical, so every portfolio loss is
a scaled univariate tail plus a location shift. The univariate quantile and
CVaR are implemented from scratch (rational approximation for the Normal,
inverse incomplete beta for the t) and validated against quadrature oracles
in the tests.

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


# Acklam's rational approximation to the Normal quantile, then one Halley
# step against the erfc-based CDF, which leaves the error near machine eps.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ConfigError("quantile level must be in (0, 1)")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    e = normal_cdf(x) - p
    u = e * _SQRT2PI * math.exp(0.5 * x * x)
    return x - u / (1 + 0.5 * x * u)  # Halley refinement


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
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
    if x == 0.0:
        return 0.5
    z = nu / (nu + x * x)
    tail = 0.5 * betainc_reg(0.5 * nu, 0.5, z)
    return 1.0 - tail if x > 0 else tail


def t_quantile(p: float, nu: float) -> float:
    """Student-t quantile via the inverse incomplete beta, Newton-polished."""
    if not 0.0 < p < 1.0:
        raise ConfigError("quantile level must be in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, nu)
    # solve I_z(nu/2, 1/2) = 2(1-p) for z, then map back to t
    target = 2.0 * (1.0 - p)
    a, b = 0.5 * nu, 0.5
    lo, hi = 0.0, 1.0
    z = min(max(nu / (nu + normal_quantile(p) ** 2), 1e-12), 1 - 1e-12)
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    for _ in range(100):
        f = betainc_reg(a, b, z) - target
        if f > 0:
            hi = z
        else:
            lo = z
        if abs(f) < 1e-14:
            break
        dens = math.exp((a - 1) * math.log(z) + (b - 1) * math.log1p(-z) - ln_beta)
        step = f / dens if dens > 0 else 0.0
        z_new = z - step
        if not lo < z_new < hi:
            z_new = 0.5 * (lo + hi)
        if abs(z_new - z) < 1e-16:
            z = z_new
            break
        z = z_new
    t = math.sqrt(nu * (1.0 - z) / z)
    for _ in range(3):  # polish directly on the t CDF
        err = t_cdf(t, nu) - p
        d = t_pdf(t, nu)
        if d <= 0:
            break
        t -= err / d
    return t


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
            raise ConfigError("scenario probabilities must be nonnegative")
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
    """Resampling (with replacement) view of a scenario set."""

    scenarios: ScenarioSet

    @property
    def d(self) -> int:
        return self.scenarios.d

    @property
    def mean(self) -> np.ndarray:
        return self.scenarios.mean()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(self.scenarios.n, size=n, p=self.scenarios.probs)
        return self.scenarios.points[idx]


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
    This is the exact-objective oracle used for optimality gaps.
    """
    x = np.asarray(x, dtype=float)
    scale = float(np.linalg.norm(dist.factor @ x))
    mean_return = float(x @ dist.mu)
    var = scale * dist.tail_quantile(beta) - mean_return
    cvar = scale * dist.tail_cvar(beta) - mean_return
    return var, cvar, mean_return


# ---------------------------------------------------------------------------
# estimation and persistence


def _upper_cholesky(S: np.ndarray) -> np.ndarray:
    return np.linalg.cholesky(S).T


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
        P = _upper_cholesky(scale * S)
    except np.linalg.LinAlgError:
        try:
            P = _upper_cholesky(scale * S + 1e-10 * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise ConfigError("sample covariance is not positive definite") from exc
    return EllipticalDistribution(family, mu, P, nu_checked)


def read_csv(path, header: bool = True) -> tuple[list[str] | None, np.ndarray]:
    """Numeric CSV: an optional header row, then rows of floats of one width.

    Returns (header or None, (n, width) array). Blank lines are skipped. A
    ragged row or a non-numeric field raises ConfigError naming path:line,
    as does a file that cannot be opened or decoded.
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


def load_returns_csv(path) -> tuple[list[str], np.ndarray]:
    """Returns CSV: ticker header row, one row of decimal returns per month."""
    return read_csv(path)


def save_scenarios(scenarios: ScenarioSet, path) -> None:
    """Write `prob,y1..yd` CSV; floats use repr so a reload is bit-identical."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["prob"] + [f"y{j + 1}" for j in range(scenarios.d)])
    for p, y in zip(scenarios.probs, scenarios.points):
        writer.writerow([repr(float(p))] + [repr(float(v)) for v in y])
    atomic_write(path, buf.getvalue())


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
