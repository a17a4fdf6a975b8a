"""Shared machinery for the population-based optimizers.

Every algorithm runs behind the same contract: a runner only breeds
candidates inside the box bounds and scores them with `budget.eval`. The
Budget ends the run (it raises `BudgetSpent` in place of an evaluation
past its limit) and keeps the best candidate ever evaluated, so elitism
is enforced here, not in each algorithm's own selection scheme.
`minimize` checks that exactly the budget was spent.
"""

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Optimizer configuration violates its invariants."""


class NonFiniteObjectiveError(FloatingPointError):
    """The objective returned NaN or an infinity, which no comparison
    with the incumbent can rank."""


@dataclass(frozen=True)
class OptResult:
    """Outcome of one fixed-dimension stage on raw vectors."""

    x: np.ndarray
    fitness: float
    value: object  # the objective's own return at x
    trace: np.ndarray  # raw objective value of every evaluation, in order

    def incumbent_trace(self):
        return np.minimum.accumulate(self.trace)


def check_population(population_size, budget):
    """ConfigError unless a population has at least 4 members (DE's
    mutation draws three besides the target) and the budget covers its
    first generation."""
    if population_size < 4:
        raise ConfigError("population_size must be >= 4")
    if budget < population_size:
        raise ConfigError(f"stage budget {budget} smaller than "
                          f"population_size {population_size}")


class BudgetSpent(Exception):
    """Ends a runner in place of an evaluation past the limit."""


class Budget:
    """Counts objective calls and keeps the incumbent best; `fn` may
    return anything `float()` accepts, kept for the best as best_value."""

    def __init__(self, fn, limit):
        self.fn = fn
        self.limit = int(limit)
        self.used = 0
        self.trace = []
        self.best_x = None
        self.best_f = np.inf
        self.best_value = None

    @property
    def remaining(self):
        return self.limit - self.used

    @property
    def exhausted(self):
        return self.used >= self.limit

    def eval(self, x):
        if self.exhausted:
            raise BudgetSpent
        value = self.fn(x)
        f = float(value)
        if not np.isfinite(f):
            raise NonFiniteObjectiveError(
                f"objective returned {f} at evaluation index {self.used}")
        self.used += 1
        self.trace.append(f)
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float)
            self.best_value = value
        return f

    @property
    def progress(self):
        return self.used / self.limit


def init_population(budget, lo, hi, pop_size, rng, x0=None):
    """Uniform initial population; x0 (if given) replaces member 0."""
    d = lo.size
    X = rng.uniform(lo, hi, size=(pop_size, d))
    if x0 is not None:
        X[0] = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = np.empty(pop_size)
    for i in range(pop_size):
        f[i] = budget.eval(X[i])
    return X, f


def tournament(f, rng, size=2):
    """Index of the fittest among `size` uniformly drawn members."""
    contenders = rng.integers(0, f.size, size=size)
    return contenders[np.argmin(f[contenders])]


def distinct_indices(rng, n, count, exclude):
    """`count` distinct indices in [0, n) avoiding `exclude` and each
    other."""
    taken = set(exclude)
    out = []
    while len(out) < count:
        r = int(rng.integers(0, n))
        if r not in taken:
            taken.add(r)
            out.append(r)
    return out


def binomial_crossover(target, donor, cr, rng):
    d = target.size
    pick = rng.random(d) <= cr
    pick[rng.integers(0, d)] = True
    return np.where(pick, donor, target)
