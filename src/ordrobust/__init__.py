"""Robust Bayesian inference for cumulative-link ordinal response models.

Fits standard and outlier-robust posteriors (density-power and two
gamma-divergence forms) by the weighted likelihood bootstrap, with
per-observation robustness diagnostics, outlier sweeps, and a
simulation harness.
"""

__version__ = "0.1.0"

from .links import LINKS, Link, get_link
from .model import (
    PROB_FLOOR,
    ContractError,
    Dataset,
    Theta,
    category_probs,
    generalized_residuals,
    theta_to_unconstrained,
    unconstrained_to_theta,
)
from .losses import (
    LOSS_KINDS,
    DegenerateObjectiveError,
    LossSpec,
    ObjectiveCore,
    Prior,
    log_prior,
    unit_dp_loss,
    unit_gamma_loss,
    weighted_objective,
    weighted_objective_gradient,
)
from .wlb import (
    MinimizeResult,
    PosteriorDraws,
    SamplingFailureError,
    WlbConfig,
    minimize,
    minimize_block,
    sample_dirichlet_uniform,
    wlb_sample,
    wlb_sample_batch,
)
from .diagnostics import (
    ConstantSeriesError,
    Contamination,
    RobustnessReport,
    StudyCell,
    SummaryTable,
    SweepRow,
    UnstableIndexError,
    autocorrelation,
    fisher_rao_index,
    posterior_robustness_sweep,
    robustness_report,
    score_estimates,
    simulate_study,
    summarize,
)
from .datasim import (
    ACTIONS,
    ERROR_LINKS,
    PreprocessError,
    PreprocessSpec,
    inject_outlier,
    likert_sigma,
    load_csv,
    simulate_contaminated,
    simulate_grid,
)

__all__ = [
    "__version__",
    "LINKS", "Link", "get_link",
    "PROB_FLOOR", "ContractError", "Dataset", "Theta", "category_probs",
    "generalized_residuals", "theta_to_unconstrained", "unconstrained_to_theta",
    "LOSS_KINDS", "DegenerateObjectiveError", "LossSpec", "ObjectiveCore",
    "Prior", "log_prior", "unit_dp_loss", "unit_gamma_loss",
    "weighted_objective", "weighted_objective_gradient",
    "MinimizeResult", "PosteriorDraws", "SamplingFailureError", "WlbConfig",
    "minimize", "minimize_block", "sample_dirichlet_uniform", "wlb_sample",
    "wlb_sample_batch",
    "ConstantSeriesError", "Contamination", "RobustnessReport", "StudyCell",
    "SummaryTable", "SweepRow", "UnstableIndexError", "autocorrelation",
    "fisher_rao_index", "posterior_robustness_sweep", "robustness_report",
    "score_estimates", "simulate_study", "summarize",
    "ACTIONS", "ERROR_LINKS", "PreprocessError", "PreprocessSpec",
    "inject_outlier", "likert_sigma", "load_csv", "simulate_contaminated",
    "simulate_grid",
]
