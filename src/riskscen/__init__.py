"""Risk-region scenario generation and CVaR portfolio optimization."""

__version__ = "0.1.0"

from .cones import Cone, FeasibleRegion, cone_member, conic_hull, project_generators, project_polyhedral
from .cvar_opt import (Cardinality, PortfolioProblem, Solution, discrete_cvar,
                       solve_cardinality, solve_exact_elliptical, solve_lp)
from .distributions import (EllipticalDistribution, EmpiricalDistribution, ScenarioSet,
                            fit_from_returns, load_scenarios, portfolio_loss_stats, sample,
                            save_scenarios, spherical_cvar, spherical_quantile)
from .errors import ConfigError, RiskscenError, SolverError
from .risk_region import RiskRegion, aggregate, classify_batch, estimate_nonrisk_prob, is_risk
from .saa import SaaConfig, SaaState, estimate_gap, run_saa, update_ghost_bounds
from .scenario_gen import (AggSampleReport, aggregation_reduction, aggregation_sampling,
                           expected_effective_sample_size)

__all__ = [
    "AggSampleReport", "Cardinality", "Cone", "ConfigError", "EllipticalDistribution",
    "EmpiricalDistribution", "FeasibleRegion", "PortfolioProblem", "RiskRegion",
    "RiskscenError", "SaaConfig", "SaaState", "ScenarioSet", "Solution", "SolverError",
    "aggregate", "aggregation_reduction", "aggregation_sampling", "classify_batch",
    "cone_member", "conic_hull", "discrete_cvar", "estimate_gap", "estimate_nonrisk_prob",
    "expected_effective_sample_size", "fit_from_returns", "is_risk", "load_scenarios",
    "portfolio_loss_stats", "project_generators",
    "project_polyhedral", "run_saa", "sample",
    "save_scenarios", "solve_cardinality", "solve_exact_elliptical", "solve_lp",
    "spherical_cvar", "spherical_quantile", "update_ghost_bounds",
]
