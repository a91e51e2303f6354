"""Random stick laws, renewal samplers, coupling and scaling experiments."""

from .laws import (
    ConstantStickLaw,
    ExponentialUniformLaw,
    GaltonWatsonUnitLaw,
    GeometricUniformLaw,
    StableFamilyLaw,
    StickBatch,
    StickLaw,
    TwoPointAgesLaw,
    parse_law,
    random_verification_law,
)
from .renewal import (
    LadderStats,
    ladder_trio_pmf,
    mean_age_integral_mc,
    sample_ladder_stats,
    sample_vhat,
    tau_minus_pmf,
)
from .coupling import CouplingResult, run_coupling, run_coupling_many, summarize_coupling
from .experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    max_rise_in_window,
    parse_config,
    resolve_scale,
    scaling_experiment,
    simulate_replicate,
)

__all__ = [
    "ConstantStickLaw",
    "ExponentialUniformLaw",
    "GaltonWatsonUnitLaw",
    "GeometricUniformLaw",
    "StableFamilyLaw",
    "StickBatch",
    "StickLaw",
    "TwoPointAgesLaw",
    "parse_law",
    "random_verification_law",
    "LadderStats",
    "ladder_trio_pmf",
    "mean_age_integral_mc",
    "sample_ladder_stats",
    "sample_vhat",
    "tau_minus_pmf",
    "CouplingResult",
    "run_coupling",
    "run_coupling_many",
    "summarize_coupling",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "ExperimentResult",
    "max_rise_in_window",
    "parse_config",
    "resolve_scale",
    "scaling_experiment",
    "simulate_replicate",
]
