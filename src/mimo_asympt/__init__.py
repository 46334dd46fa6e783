"""Asymptotic statistics of MMSE MIMO mutual information over
Kronecker-correlated Rayleigh channels, with an exact Monte Carlo
reference simulator.

Library layout:

  channel      correlation models, channel sampling (counter-based RNG)
  mmse         exact per-realization SINRs and mutual informations
  asymptotics  coupled fixed point, asymptotic log-det mean, mean SINR + 1/N term
  covariance   SINR covariance via the joint log-det cumulant, i.i.d. closed forms
  gaussian     Gaussian mean/variance assembly and outage probabilities
  montecarlo   seeded, worker-count-invariant trial engine
  scenario/cli JSON scenarios and the mimo-asympt command line
"""

from .asymptotics import (
    Deformation,
    FixedPointSolution,
    MeanSinrResult,
    NonConvergence,
    StabilityViolation,
    mean_logdet_asymptotic,
    mean_sinr_asymptotic,
    solve_fixed_point,
)
from .channel import (
    ChannelSample,
    CorrelationPair,
    SystemConfig,
    build_exponential_correlation,
    load_correlation_json,
    psd_sqrt,
    sample_channel,
    save_correlation_json,
)
from .covariance import (
    IidClosedForms,
    SinrCovariance,
    StepTooLarge,
    iid_closed_forms,
    logdet_joint_cumulant,
    sinr_covariance,
)
from .gaussian import (
    MutualInfoGaussian,
    mmse_mi_gaussian,
    mmse_mi_mean,
    mmse_mi_variance,
    optimal_mi_gaussian,
    outage_probability,
)
from .mmse import (
    mutual_info_mmse,
    mutual_info_optimal,
    sinr_deflated,
    sinr_exact,
    sinr_trace_identity,
)
from .montecarlo import (
    EmpiricalSummary,
    MonteCarloError,
    TrialBatchSpec,
    WorkerCountError,
    empirical_outage,
    ks_distance,
    run_trials,
    run_trials_grid,
    summary_to_json,
    write_samples_csv,
)
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"

__all__ = [
    "ChannelSample",
    "CorrelationPair",
    "Deformation",
    "EmpiricalSummary",
    "FixedPointSolution",
    "IidClosedForms",
    "MeanSinrResult",
    "MonteCarloError",
    "MutualInfoGaussian",
    "NonConvergence",
    "Scenario",
    "ScenarioError",
    "SinrCovariance",
    "StabilityViolation",
    "StepTooLarge",
    "SystemConfig",
    "TrialBatchSpec",
    "WorkerCountError",
    "build_exponential_correlation",
    "empirical_outage",
    "iid_closed_forms",
    "ks_distance",
    "load_correlation_json",
    "load_scenario",
    "logdet_joint_cumulant",
    "mean_logdet_asymptotic",
    "mean_sinr_asymptotic",
    "mmse_mi_gaussian",
    "mmse_mi_mean",
    "mmse_mi_variance",
    "mutual_info_mmse",
    "mutual_info_optimal",
    "optimal_mi_gaussian",
    "outage_probability",
    "psd_sqrt",
    "run_trials",
    "run_trials_grid",
    "sample_channel",
    "save_correlation_json",
    "sinr_covariance",
    "sinr_deflated",
    "sinr_exact",
    "sinr_trace_identity",
    "solve_fixed_point",
    "summary_to_json",
    "write_samples_csv",
]
