"""The two risk-region shapes the experiments classify against most.

ghost_box_region: the case-study shape, a t(4) surrogate of skewed d=12
scenarios and a [0, 0.35] ghost box on the budget set, so K' has 24 facets.
quota_region: the stability shape, a t(4) fit of synthetic d=10 returns
under a 0.3 quota, so K' has 20 facets.
sector_pair_region: a t(4) fit of synthetic returns under a 0.4 quota and a
sector equality (the first d // 2 assets hold half the capital) written as
two opposite rows, so K' has two exactly opposite facets and the polar
route's NNLS two exactly opposite columns.
"""

import numpy as np

from riskscen.cones import FeasibleRegion, conic_hull
from riskscen.distributions import fit_from_returns
from riskscen.risk_region import RiskRegion
from riskscen.synthetic import skewed_scenarios, synthetic_returns


def ghost_box_region(beta: float) -> RiskRegion:
    scen = skewed_scenarios(12, 3000, 5)
    dist = fit_from_returns(scen.points, "student-t", nu=4.0, weights=scen.probs)
    return RiskRegion(dist, conic_hull(FeasibleRegion(12, 1.0).with_bounds(0.0, 0.35)), beta)


def quota_region(beta: float) -> RiskRegion:
    _, returns = synthetic_returns(10, 240, 7, family="student-t")
    dist = fit_from_returns(returns, "student-t", nu=4.0)
    return RiskRegion(dist, conic_hull(FeasibleRegion(10, 1.0, upper=np.full(10, 0.3))), beta)


def sector_pair_region(d: int, beta: float = 0.95) -> RiskRegion:
    _, returns = synthetic_returns(d, 240, 7, family="student-t")
    dist = fit_from_returns(returns, "student-t", nu=4.0)
    sector = (np.arange(d) < d // 2).astype(float)
    region = FeasibleRegion(d, 1.0, A=[sector, -sector], b=[0.5, -0.5], upper=np.full(d, 0.4))
    return RiskRegion(dist, conic_hull(region), beta)


SHAPES = {"ghost-box-d12-b0.99": lambda: ghost_box_region(0.99),
          "quota-d10-b0.95": lambda: quota_region(0.95)}
