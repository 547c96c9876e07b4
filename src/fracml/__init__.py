"""Generalized k-Mittag-Leffler functions, closed-form fractional kinetic
equation solutions, and quadrature-based residual verification."""

from .errors import DomainError, PoleError
from .specfun import (
    gamma,
    generalized_pochhammer,
    k_gamma,
    k_pochhammer,
    k_pochhammer_general,
    recip_gamma,
)
from .mittag import (
    MLParameters,
    SeriesEvaluation,
    TwoParamML,
    kml,
    ml2,
)
from .kinetics import (
    Forcing,
    GridEvaluation,
    KineticProblem,
    forcing_value,
    solve,
    solve_theorem1,
    solve_theorem2_rederived,
    solve_theorem2_stated,
    solve_theorem3_rederived,
    solve_theorem3_stated,
)
from .fracops import (
    ResidualReport,
    SampledFunction,
    laplace_numeric,
    laplace_step_check,
    residual_report,
    rl_integral,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "gamma",
    "recip_gamma",
    "k_gamma",
    "k_pochhammer",
    "generalized_pochhammer",
    "k_pochhammer_general",
    "TwoParamML",
    "MLParameters",
    "SeriesEvaluation",
    "ml2",
    "kml",
    "Forcing",
    "GridEvaluation",
    "KineticProblem",
    "forcing_value",
    "solve",
    "solve_theorem1",
    "solve_theorem2_stated",
    "solve_theorem2_rederived",
    "solve_theorem3_stated",
    "solve_theorem3_rederived",
    "SampledFunction",
    "ResidualReport",
    "rl_integral",
    "residual_report",
    "laplace_numeric",
    "laplace_step_check",
    "__version__",
]
