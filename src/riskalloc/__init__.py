"""Systemic risk allocations under crisis events.

Estimates per-coordinate risk measures of a joint loss vector conditioned
on a sum-based crisis event (VaR band or exact hyperplane, RVaR band, ES
tail) by plain Monte Carlo, Hamiltonian Monte Carlo with hyperplane
reflection, or random-scan Gibbs sampling, with parameter tuning driven
by an unconditional presample.

The names below are the user-facing API; the engines' building blocks
(targets, leapfrog, h-function inversion, ...) are importable from their
submodules.
"""

# set before the submodules import: the harness writes it to manifest.json
__version__ = "0.1.0"

from .copulas import (
    Clayton,
    Copula,
    GaussianCopula,
    Independence,
    StudentTCopula,
    SurvivalClayton,
)
from .events import CrisisEventSpec
from .gibbs import GibbsParams
from .harness import (
    AllocationReport,
    ComparisonRow,
    RunConfig,
    compare,
    oracle_for,
    run,
    run_config_from_dict,
    time_adjusted_mse,
    write_comparison_csv,
)
from .hmc import HmcParams
from .marginals import GPD, Marginal, Normal, Pareto, StudentT
from .mc import ConditionalCountError
from .measures import MarginalRiskMeasure, batch_means_se  # noqa: F401  (package attribute)
from .models import (
    PRESET_NAMES,
    JointLossModel,
    load_model,
    model_from_dict,
    preset,
    student_t_model,
)
from .oracle import elliptical_oracle

__all__ = [
    "AllocationReport",
    "Clayton",
    "ComparisonRow",
    "ConditionalCountError",
    "Copula",
    "CrisisEventSpec",
    "GPD",
    "GaussianCopula",
    "GibbsParams",
    "HmcParams",
    "Independence",
    "JointLossModel",
    "Marginal",
    "MarginalRiskMeasure",
    "Normal",
    "PRESET_NAMES",
    "Pareto",
    "RunConfig",
    "StudentT",
    "StudentTCopula",
    "SurvivalClayton",
    "compare",
    "elliptical_oracle",
    "load_model",
    "model_from_dict",
    "oracle_for",
    "preset",
    "run",
    "run_config_from_dict",
    "student_t_model",
    "time_adjusted_mse",
    "write_comparison_csv",
]
