"""Experiment harness: runners, the per-figure experiment registry, and
ASCII reporting that prints the same rows/series the paper's tables and
figures report."""

from .experiments import EXPERIMENTS, run_experiment
from .parallel import default_workers, run_experiments
from .report import ExperimentResult
from .runner import (
    run_address_prediction,
    run_value_prediction,
    warm_then_measure,
)
from .workbank import (
    BANK_GROUPS,
    DEFAULT_BANK_PREDICTORS,
    render_bank,
    run_bank,
)

__all__ = [
    "run_value_prediction",
    "run_bank",
    "render_bank",
    "BANK_GROUPS",
    "DEFAULT_BANK_PREDICTORS",
    "run_address_prediction",
    "warm_then_measure",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "default_workers",
    "ExperimentResult",
]
