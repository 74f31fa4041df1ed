"""Simulation toolkit for Gaussian approximation of regression experiments.

Submodules build up a pipeline: parametric observation families with
variance-stabilizing transforms (`families`), smoothness classes and
localization rates (`function_space`), experiment samplers and
the exact log-likelihood ratio (`experiments`), squared Hellinger reports
and their Monte Carlo estimator (`distances`), common-space likelihood
coupling (`coupling`), the block Gaussianization kernel
(`globalization`), and a reproducible batch study driver (`harness`,
CLI entry point `lecam-equiv`).

The most commonly used names are re-exported here; everything else is
importable from its submodule.
"""

__version__ = "0.1.0"

from .coupling import (
    CcAuditReport,
    CoupledLikelihoodDraw,
    CouplingPlan,
    audit_cc_conditions,
    build_coupled_draw,
)
from .distances import (
    DistanceReport,
    mc_hellinger_coupled,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DomainError,
    NumericError,
)
from .experiments import (
    DesignCell,
    ExperimentDraw,
    design_cell,
    lase_terms,
    read_draw,
    sample_original,
    write_draw,
)
from .families import (
    ParametricFamily,
    check_regularity,
    get_family,
)
from .function_space import (
    RegressionFunction,
    holder_check,
    parse_function,
    rate_gamma_bar,
)
from .globalization import (
    GaussianizedData,
    gamma_scale_estimate,
    gaussianize,
    homoscedastic_transform_check,
    preliminary_estimate,
    risk_transfer_demo,
)
from .harness import (
    StudyConfig,
    StudyResult,
    derive_seed,
    parse_config,
    run_study,
    stream_rng,
)

__all__ = [
    "__version__",
    # families
    "ParametricFamily",
    "get_family",
    "check_regularity",
    # function space
    "RegressionFunction",
    "parse_function",
    "rate_gamma_bar",
    "holder_check",
    # experiments
    "ExperimentDraw",
    "DesignCell",
    "design_cell",
    "sample_original",
    "lase_terms",
    "write_draw",
    "read_draw",
    # distances
    "mc_hellinger_coupled",
    "DistanceReport",
    # coupling
    "CouplingPlan",
    "build_coupled_draw",
    "audit_cc_conditions",
    "CoupledLikelihoodDraw",
    "CcAuditReport",
    # globalization
    "preliminary_estimate",
    "gaussianize",
    "GaussianizedData",
    "gamma_scale_estimate",
    "homoscedastic_transform_check",
    "risk_transfer_demo",
    # harness
    "StudyConfig",
    "parse_config",
    "run_study",
    "StudyResult",
    "derive_seed",
    "stream_rng",
    # errors
    "ArgumentError",
    "DomainError",
    "ConfigError",
    "NumericError",
]
