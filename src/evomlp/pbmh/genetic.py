"""Tournament GA and its memetic extension."""

import numpy as np

from .core import init_population, tournament

GA_CONSTANTS = {
    "crossover_prob": 0.95,
    "mutation_prob": 0.05,
    "tournament_size": 2,
    "mutation_sigma_frac": 0.1,
}

MA_CONSTANTS = dict(GA_CONSTANTS, local_search_prob=0.5,
                    local_search_trials=5, local_search_sigma_frac=0.05)


def _breed(X, f, lo, hi, span, rng):
    d = X.shape[1]
    p1 = tournament(f, rng, GA_CONSTANTS["tournament_size"])
    p2 = tournament(f, rng, GA_CONSTANTS["tournament_size"])
    child = X[p1].copy()
    if rng.random() < GA_CONSTANTS["crossover_prob"]:
        take = rng.random(d) < 0.5
        child[take] = X[p2][take]
    mutate = rng.random(d) < GA_CONSTANTS["mutation_prob"]
    if mutate.any():
        child[mutate] += rng.normal(
            0.0, GA_CONSTANTS["mutation_sigma_frac"] * span[mutate])
    return np.clip(child, lo, hi)


def _ga_generation(X, f, lo, hi, budget, rng):
    """Generational replacement; the current best survives in slot 0."""
    pop = X.shape[0]
    span = hi - lo
    elite = int(np.argmin(f))
    elite_x, elite_f = X[elite].copy(), f[elite]
    children = [_breed(X, f, lo, hi, span, rng) for _ in range(pop - 1)]
    for i, child in enumerate(children, start=1):
        f[i] = budget.eval(child)
        X[i] = child
    X[0], f[0] = elite_x, elite_f


def run_ga(budget, lo, hi, pop_size, rng, x0=None):
    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    while not budget.exhausted:
        _ga_generation(X, f, lo, hi, budget, rng)


def run_ma(budget, lo, hi, pop_size, rng, x0=None):
    """GA plus per-agent Gaussian hill-climbing."""
    span = hi - lo
    sigma = MA_CONSTANTS["local_search_sigma_frac"] * span
    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    while not budget.exhausted:
        _ga_generation(X, f, lo, hi, budget, rng)
        for i in range(X.shape[0]):
            if rng.random() >= MA_CONSTANTS["local_search_prob"]:
                continue
            cur, cur_f = X[i].copy(), f[i]
            for _ in range(MA_CONSTANTS["local_search_trials"]):
                cand = np.clip(cur + rng.normal(0.0, sigma), lo, hi)
                cand_f = budget.eval(cand)
                if cand_f < cur_f:
                    cur, cur_f = cand, cand_f
            X[i], f[i] = cur, cur_f
