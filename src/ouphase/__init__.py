"""Simulation and closed-form analysis of continuous optical phase tracking.

A mean-reverting stochastic phase is observed through shot-noise-limited
detection (feedback homodyne or dual homodyne), estimated offline by causal,
anticausal and time-symmetric exponential averaging, and every Monte Carlo
error is checked against exact variance formulas.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, ParameterError, StatisticsError
from .stochastic import (
    NoiseStream,
    ProcessParams,
    Role,
    SimGrid,
    simulate_ou,
    wiener_increments,
)
from .detection import (
    FeedbackParams,
    Trajectory,
    linearized_theta,
    run_adaptive_loop,
    run_dual_homodyne,
)
from .estimators import (
    EstimatorParams,
    MseStats,
    anticausal_exponential_average,
    apply_estimators,
    causal_exponential_average,
    combine_smoothed,
    empirical_mse,
)
from .analytics import (
    ImprovementRatios,
    OptimalChi,
    TheoryPoint,
    combined_mse,
    filtered_mse,
    forward_backward_correlation,
    improvement_ratios,
    optimal_beta,
    optimal_chi,
    smoothed_mse,
    sql_mse,
    xi,
)
from .experiment import (
    Condition,
    ExperimentConfig,
    GainComparison,
    TrialResult,
    VarianceReport,
    compare_schemes,
    run_ensemble,
    run_trial,
    sweep,
)

__all__ = [
    "__version__",
    "ParameterError",
    "ConfigurationError",
    "StatisticsError",
    "Role",
    "NoiseStream",
    "ProcessParams",
    "SimGrid",
    "wiener_increments",
    "simulate_ou",
    "FeedbackParams",
    "Trajectory",
    "run_adaptive_loop",
    "run_dual_homodyne",
    "linearized_theta",
    "EstimatorParams",
    "MseStats",
    "causal_exponential_average",
    "anticausal_exponential_average",
    "combine_smoothed",
    "apply_estimators",
    "empirical_mse",
    "TheoryPoint",
    "OptimalChi",
    "ImprovementRatios",
    "filtered_mse",
    "forward_backward_correlation",
    "combined_mse",
    "smoothed_mse",
    "optimal_chi",
    "sql_mse",
    "optimal_beta",
    "xi",
    "improvement_ratios",
    "ExperimentConfig",
    "TrialResult",
    "Condition",
    "VarianceReport",
    "GainComparison",
    "run_trial",
    "run_ensemble",
    "sweep",
    "compare_schemes",
]
