"""Thirteen population-based metaheuristics behind one minimizing API.

`minimize` drives any of them on raw bounded vectors; `optimize_stage`
wraps that for genome search at a fixed layer count. A runner breeds
candidates and calls `budget.eval`, and the Budget ends it; `minimize`
then checks, for every caller, that exactly the requested number of
evaluations was spent. The objective may return anything `float()`
accepts; the best candidate's own return is `OptResult.value`.

`_REGISTRY` is the one place that names each algorithm's loop, with its
variant and constants. The thirteen run on six loops: `run_ga`,
`run_ma` and `run_cmaes`; `de._current_to_rand` for DE and SAP-DE;
`de._current_to_pbest` for JADE, SHADE and LSHADE, which differ only in
the F/CR memory class (a fresh one each run) and LSHADE's shrinking
population; and `swarm._fly` for the five PSO variants.
"""

from contextlib import suppress
from functools import partial

import numpy as np

from ..genome import Genome
from .cmaes import CMAES_CONSTANTS, run_cmaes
from .core import (Budget, BudgetSpent, ConfigError,
                   NonFiniteObjectiveError, OptResult, check_population)
from .de import (DE_CONSTANTS, JADE_CONSTANTS, LSHADE_CONSTANTS,
                 SAPDE_CONSTANTS, SHADE_CONSTANTS, _current_to_pbest,
                 _current_to_rand, _JadeMemory, _ShadeMemory)
from .genetic import GA_CONSTANTS, MA_CONSTANTS, run_ga, run_ma
from .swarm import (CLPSO_CONSTANTS, CPSO_CONSTANTS, HPSO_CONSTANTS,
                    PPSO_CONSTANTS, PSO_CONSTANTS, _clpso, _cpso, _fly,
                    _hpso, _ppso, _pso)

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
    "DE": (partial(_current_to_rand, resize=False), DE_CONSTANTS),
    "MA": (run_ma, MA_CONSTANTS),
    "PSO": (partial(_fly, variant=_pso), PSO_CONSTANTS),
    "CMA-ES": (run_cmaes, CMAES_CONSTANTS),
    "HPSO": (partial(_fly, variant=_hpso), HPSO_CONSTANTS),
    "CPSO": (partial(_fly, variant=_cpso), CPSO_CONSTANTS),
    "CLPSO": (partial(_fly, variant=_clpso), CLPSO_CONSTANTS),
    "SAP-DE": (partial(_current_to_rand, resize=True), SAPDE_CONSTANTS),
    "JADE": (partial(_current_to_pbest, memory=_JadeMemory), JADE_CONSTANTS),
    "SHADE": (partial(_current_to_pbest, memory=_ShadeMemory),
              SHADE_CONSTANTS),
    "LSHADE": (partial(_current_to_pbest, memory=_ShadeMemory, shrink=True),
               LSHADE_CONSTANTS),
    "PPSO": (partial(_fly, variant=_ppso), PPSO_CONSTANTS),
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
