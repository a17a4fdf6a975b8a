"""Thirteen population-based metaheuristics behind one minimizing API.

`minimize` drives any of them on raw bounded vectors; `optimize_stage`
wraps that for genome search at a fixed layer count. A runner breeds
candidates and calls `budget.eval`, and the Budget ends it; `minimize`
then checks, for every caller, that exactly the requested number of
evaluations was spent. The objective may return anything `float()`
accepts; the best candidate's own return is `OptResult.value`.
"""

from contextlib import suppress

import numpy as np

from ..genome import Genome
from .cmaes import CMAES_CONSTANTS, run_cmaes
from .core import (Budget, BudgetSpent, ConfigError,
                   NonFiniteObjectiveError, OptResult, check_population)
from .de import (DE_CONSTANTS, JADE_CONSTANTS, LSHADE_CONSTANTS,
                 SAPDE_CONSTANTS, SHADE_CONSTANTS, run_de, run_jade,
                 run_lshade, run_sapde, run_shade)
from .genetic import GA_CONSTANTS, MA_CONSTANTS, run_ga, run_ma
from .swarm import (CLPSO_CONSTANTS, CPSO_CONSTANTS, HPSO_CONSTANTS,
                    PPSO_CONSTANTS, PSO_CONSTANTS, run_clpso, run_cpso,
                    run_hpso, run_ppso, run_pso)

__all__ = [
    "ALGORITHM_NAMES",
    "Budget",
    "ConfigError",
    "NonFiniteObjectiveError",
    "OptResult",
    "algorithm_constants",
    "canonical_name",
    "minimize",
    "optimize_stage",
]

_REGISTRY = {
    "GA": (run_ga, GA_CONSTANTS),
    "DE": (run_de, DE_CONSTANTS),
    "MA": (run_ma, MA_CONSTANTS),
    "PSO": (run_pso, PSO_CONSTANTS),
    "CMA-ES": (run_cmaes, CMAES_CONSTANTS),
    "HPSO": (run_hpso, HPSO_CONSTANTS),
    "CPSO": (run_cpso, CPSO_CONSTANTS),
    "CLPSO": (run_clpso, CLPSO_CONSTANTS),
    "SAP-DE": (run_sapde, SAPDE_CONSTANTS),
    "JADE": (run_jade, JADE_CONSTANTS),
    "SHADE": (run_shade, SHADE_CONSTANTS),
    "LSHADE": (run_lshade, LSHADE_CONSTANTS),
    "PPSO": (run_ppso, PPSO_CONSTANTS),
}

ALGORITHM_NAMES = tuple(_REGISTRY)


def algorithm_constants():
    """Constants echoed into run manifests for reproducibility."""
    return {alg: dict(consts) for alg, (_, consts) in _REGISTRY.items()}


def canonical_name(name):
    """Case- and hyphen-insensitive lookup of an algorithm id."""
    for alg in _REGISTRY:
        if alg.lower().replace("-", "") == str(name).lower().replace("-", ""):
            return alg
    raise ConfigError(f"unknown algorithm {name!r}; "
                      f"choose from {', '.join(ALGORITHM_NAMES)}")


def minimize(algorithm, fn, lower, upper, population_size, budget, seed,
             x0=None):
    """Run one algorithm on a bounded vector objective.

    Spends exactly `budget` evaluations (initial population included),
    else raises RuntimeError, and returns the incumbent best, regardless
    of what the algorithm's own selection scheme kept alive.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower > upper):
        raise ConfigError("invalid bounds")
    check_population(population_size, budget)
    name = canonical_name(algorithm)
    ledger = Budget(fn, budget)
    with suppress(BudgetSpent):
        _REGISTRY[name][0](ledger, lower, upper, population_size,
                           np.random.default_rng(seed), x0)
    if ledger.used != budget:
        raise RuntimeError(
            f"{name} spent {ledger.used} of {budget} evaluations")
    return OptResult(x=ledger.best_x, fitness=ledger.best_f,
                     value=ledger.best_value, trace=np.array(ledger.trace))


def optimize_stage(algorithm, space, n_layers, evaluator, population_size,
                   budget, seed, warm_start=None):
    """Genome search at a fixed layer count: `minimize` over the genome
    box of space.vector_bounds(n_layers), returning its OptResult.

    evaluator maps a Genome to anything `float()` turns into its fitness;
    warm_start (same layer count) is one member of the first population.
    """
    if warm_start is not None and warm_start.n_layers != n_layers:
        raise ConfigError(
            f"warm start has {warm_start.n_layers} layers, stage expects "
            f"{n_layers}")
    return minimize(
        algorithm, lambda vec: evaluator(Genome.from_vector(vec)),
        *space.vector_bounds(n_layers), population_size, budget, seed,
        x0=None if warm_start is None else warm_start.to_vector())
