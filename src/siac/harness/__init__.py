"""Experiment harness: run configs, convergence sweeps, verification, CLI."""

from .config import ConfigError, FilterVariant, ProblemSpec, RunConfig, load_config, preset_names
from .runner import ConvergenceReport, run_convergence

__all__ = [
    "ConfigError",
    "FilterVariant",
    "ProblemSpec",
    "RunConfig",
    "load_config",
    "preset_names",
    "ConvergenceReport",
    "run_convergence",
]
