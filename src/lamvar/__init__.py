"""Weighted (lambda-)variation of functions on [0,1], polynomial smoothing
operators that diminish it, and seeded campaigns that hunt for violations."""

from .errors import (
    DomainError,
    InvalidInputError,
    PropertyViolationError,
    ResourceError,
)
from .functions import (
    BernsteinPoly,
    CriticalSet,
    PiecewiseLinear,
    PiecewisePolynomial,
    StepFunction,
    critical_points,
    isolate_extrema,
    named_function,
    subtract,
)
from .lambda_seq import LambdaSequence
from .operators import (
    Monotonicity,
    bernstein_of,
    kantorovich_aux,
    kantorovich_of,
    monotone_certificate,
)
from .variation import (
    IntervalSystem,
    VariationResult,
    best_assignment,
    grid_oracle,
    lambda_distance,
    lambda_norm,
    lambda_variation,
    lambda_variation_on_set,
    restricted_variation,
    sigma,
    tail_variation,
    wiener_profile,
)
from .experiments import (
    ExperimentReport,
    check_continuity_set,
    random_plf,
    run_convergence_study,
    run_counterexample,
    run_diminish_campaign,
    run_oracle_crosscheck,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinPoly",
    "CriticalSet",
    "DomainError",
    "ExperimentReport",
    "IntervalSystem",
    "InvalidInputError",
    "LambdaSequence",
    "Monotonicity",
    "PiecewiseLinear",
    "PiecewisePolynomial",
    "PropertyViolationError",
    "ResourceError",
    "StepFunction",
    "VariationResult",
    "best_assignment",
    "bernstein_of",
    "check_continuity_set",
    "critical_points",
    "grid_oracle",
    "isolate_extrema",
    "kantorovich_aux",
    "kantorovich_of",
    "lambda_distance",
    "lambda_norm",
    "lambda_variation",
    "lambda_variation_on_set",
    "monotone_certificate",
    "named_function",
    "random_plf",
    "restricted_variation",
    "run_convergence_study",
    "run_counterexample",
    "run_diminish_campaign",
    "run_oracle_crosscheck",
    "sigma",
    "subtract",
    "tail_variation",
    "wiener_profile",
]
