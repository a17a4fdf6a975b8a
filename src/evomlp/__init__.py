"""Metaheuristic search over masked-MLP hyperparameters and architecture.

Subpackages: genome encoding, data pipeline, masked network, gradient
solvers, the 13 population-based optimizers, the cross-validated
objective, the benchmark driver, and nonparametric statistics.
"""

from .data import (LabeledDataset, compute_ecpm, inject_missing, label_ecpm,
                   synthesize)
from .genome import Genome, HyperparamVector, NetworkSpec, SearchSpace
from .objective import EvalConfig, EvalResult, evaluate
from .pbmh import ALGORITHM_NAMES, minimize, optimize_stage
from .solvers import SOLVER_NAMES

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "EvalConfig",
    "EvalResult",
    "Genome",
    "HyperparamVector",
    "LabeledDataset",
    "NetworkSpec",
    "SOLVER_NAMES",
    "SearchSpace",
    "compute_ecpm",
    "evaluate",
    "inject_missing",
    "label_ecpm",
    "minimize",
    "optimize_stage",
    "synthesize",
]
