"""Indirect elicitation of statistical properties via weighted sub-losses.

A target property (variance, skewness) is inferred from directly-elicited
raw moments under a parametric model constraint.  The package sweeps the
weight on one sub-loss, records how the constrained optimum of the target
property moves, and mechanically verifies the monotonicity theory behind
the observed curves.
"""

from .distmodels import (
    ParametricModel,
    SamplingTemplate,
    make_model,
    model_curve_value,
    moment_jacobian,
    moments,
    sample,
)
from .links import LinkFunction, contour_slope, contour_value, link_gradient, link_value, make_link
from .losses import (
    EmpiricalMoments,
    WeightVector,
    analytic_moments,
    empirical_moments,
    renormalize_base,
    sub_loss,
    total_loss,
)
from .optimize import (
    OptimizerConfig,
    Solution,
    meshgrid_oracle,
    minimize,
    minimize_many,
    moment_match_init,
)
from .sweep import SweepCurve, SweepSpec, best_weight, classify_monotonicity, run_sweep
from .theory import (
    check_condition_A,
    check_condition_B,
    check_linear_trajectory,
    check_md_slice_premise,
    classify_2d_case,
    lognormal_log_map,
    lognormal_skew_approx,
    predict_best_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ParametricModel",
    "SamplingTemplate",
    "make_model",
    "moments",
    "moment_jacobian",
    "model_curve_value",
    "sample",
    "LinkFunction",
    "make_link",
    "link_value",
    "link_gradient",
    "contour_value",
    "contour_slope",
    "EmpiricalMoments",
    "WeightVector",
    "empirical_moments",
    "analytic_moments",
    "sub_loss",
    "total_loss",
    "renormalize_base",
    "OptimizerConfig",
    "Solution",
    "minimize",
    "minimize_many",
    "meshgrid_oracle",
    "moment_match_init",
    "SweepSpec",
    "SweepCurve",
    "run_sweep",
    "classify_monotonicity",
    "best_weight",
    "check_condition_A",
    "check_condition_B",
    "check_md_slice_premise",
    "check_linear_trajectory",
    "classify_2d_case",
    "predict_best_weight",
    "lognormal_log_map",
    "lognormal_skew_approx",
    "__version__",
]
