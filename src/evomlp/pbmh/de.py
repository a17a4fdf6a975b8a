"""Differential evolution and its self-adaptive descendants, on two
generation loops.

Both loops breed a whole generation from a snapshot of the last one and
keep each trial that scores no worse than its target.

- Plain DE and SAP-DE share the current-to-rand/1/bin loop under fixed
  F and CR. SAP-DE also gives each member a population-size gene, bred
  with the same F, and resizes the population to the genes' rounded
  mean after each generation.
- JADE, SHADE and LSHADE share the current-to-pbest/1/bin loop with an
  external archive, drawing each member's CR (normal) and F (Cauchy)
  around a memory of successful values. Only the memory differs: JADE
  smooths one (muCR, muF) pair at rate c, SHADE keeps an H-slot success
  history, and LSHADE is SHADE with the population shrinking linearly in
  evaluations.
"""

import numpy as np

from .core import binomial_crossover, distinct_indices, init_population

DE_CONSTANTS = {
    "weighting_factor": 0.8,
    "crossover_rate": 0.9,
    "strategy": "current-to-rand/1/bin",
}

SAPDE_CONSTANTS = dict(DE_CONSTANTS, variant="ABS", min_pop=4,
                       max_pop_factor=2)

JADE_CONSTANTS = {
    "adaptation_rate": 0.1,
    "p_best_fraction": 0.1,
    "archive": True,
    "cr_sigma": 0.1,
    "f_scale": 0.1,
}

SHADE_CONSTANTS = {"history_size": 50, "archive": True}

LSHADE_CONSTANTS = dict(SHADE_CONSTANTS, min_pop=4)


def _current_to_rand(budget, lo, hi, pop_size, rng, x0, resize):
    """current-to-rand/1/bin under fixed F and CR; with `resize`, each
    member carries a population-size gene and the population is resized
    after each generation (SAP-DE's ABS variant)."""
    F = DE_CONSTANTS["weighting_factor"]
    CR = DE_CONSTANTS["crossover_rate"]
    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    if resize:
        pi = np.round(pop_size + rng.standard_normal(pop_size))
    while not budget.exhausted:
        arr, farr = X.copy(), f.copy()  # breed from the old generation
        for i in range(len(arr)):
            r1, r2, r3 = distinct_indices(rng, len(arr), 3, {i})
            donor = arr[i] + F * (arr[r1] - arr[i]) + F * (arr[r2] - arr[r3])
            trial = np.clip(binomial_crossover(arr[i], donor, CR, rng), lo, hi)
            tf = budget.eval(trial)
            if tf <= farr[i]:
                X[i], f[i] = trial, tf
                if resize:  # pi[i] += ... would regroup the sum
                    pi[i] = (pi[i] + F * (pi[r1] - pi[i])
                             + F * (pi[r2] - pi[r3]))
        if resize:
            X, f, pi = _abs_resize(budget, lo, hi, pop_size, rng, X, f, pi)


def _abs_resize(budget, lo, hi, pop_size, rng, X, f, pi):
    """Resize to the rounded mean of the genes, within [min_pop,
    max_pop_factor * pop_size]: keep the fittest, or add scored uniform
    newcomers with fresh genes."""
    target = int(np.clip(round(float(np.mean(pi))), SAPDE_CONSTANTS["min_pop"],
                         SAPDE_CONSTANTS["max_pop_factor"] * pop_size))
    if target < len(X):  # the argsort slice also reorders the members
        keep = np.argsort(f)[:target]
        return X[keep], f[keep], pi[keep]
    while target > len(X):
        newcomer = rng.uniform(lo, hi)
        X = np.vstack([X, newcomer])
        f = np.append(f, budget.eval(newcomer))
        pi = np.append(pi, np.round(pop_size + rng.standard_normal()))
    return X, f, pi


def lshade_population_size(pop_init, used, budget):
    """Linear-in-evaluations reduction from pop_init down to LSHADE's
    min_pop."""
    min_pop = LSHADE_CONSTANTS["min_pop"]
    return max(min_pop, round(pop_init - (pop_init - min_pop) * used / budget))


def _cauchy_factor(rng, loc, scale):
    """Cauchy draw truncated to (0, 1]: values above 1 clip, values at or
    below 0 are redrawn."""
    while True:
        value = loc + scale * rng.standard_cauchy()
        if value > 1:
            return 1.0
        if value > 0:
            return float(value)


def _draw_cr_f(rng, mu_cr, mu_f):
    """A member's CR, normal around mu_cr and clipped to [0, 1], then its
    F, Cauchy around mu_f."""
    cr = float(np.clip(rng.normal(mu_cr, JADE_CONSTANTS["cr_sigma"]), 0, 1))
    return cr, _cauchy_factor(rng, mu_f, JADE_CONSTANTS["f_scale"])


class _JadeMemory:
    """One (muCR, muF) pair, moved at rate c toward the mean of each
    generation's successful CRs and the Lehmer mean of their Fs."""

    def __init__(self):
        self.mu_cr = self.mu_f = 0.5

    def draw(self, rng, n):
        return (*_draw_cr_f(rng, self.mu_cr, self.mu_f),
                JADE_CONSTANTS["p_best_fraction"])

    def update(self, s_cr, s_f, gains):
        c = JADE_CONSTANTS["adaptation_rate"]
        self.mu_cr = (1 - c) * self.mu_cr + c * float(np.mean(s_cr))
        self.mu_f = (1 - c) * self.mu_f + c * float(s_f.dot(s_f) / s_f.sum())


class _ShadeMemory:
    """H slots of (muCR, muF): a member draws around a random slot, with a
    p-best fraction uniform in [min(2/n, 0.2), 0.2]; each generation's
    successes, weighted by their fitness gains, fill the next slot."""

    def __init__(self):
        self.mu_cr = np.full(SHADE_CONSTANTS["history_size"], 0.5)
        self.mu_f = self.mu_cr.copy()
        self.pos = 0

    def draw(self, rng, n):
        slot = int(rng.integers(0, self.mu_cr.size))
        cr, f = _draw_cr_f(rng, self.mu_cr[slot], self.mu_f[slot])
        return cr, f, rng.uniform(min(2.0 / n, 0.2), 0.2)

    def update(self, s_cr, s_f, gains):
        w = gains / gains.sum()
        self.mu_cr[self.pos] = float(w.dot(s_cr))
        self.mu_f[self.pos] = float(w.dot(s_f * s_f) / w.dot(s_f))
        self.pos = (self.pos + 1) % self.mu_cr.size


def _pbest_index(f, p_frac, rng):
    count = max(2, int(np.ceil(p_frac * f.size)))
    top = np.argsort(f)[:count]
    return int(top[rng.integers(0, top.size)])


def _ctpb1(X, archive, i, pbest, F, rng):
    """current-to-pbest/1 with the second difference partner drawn from
    the population plus the archive."""
    n = X.shape[0]
    r1 = distinct_indices(rng, n, 1, {i})[0]
    pool = n + len(archive)
    r2 = r1
    while r2 == r1 or r2 == i:
        r2 = int(rng.integers(0, pool))
    partner = X[r2] if r2 < n else archive[r2 - n]
    return X[i] + F * (X[pbest] - X[i]) + F * (X[r1] - partner)


def _trim_archive(archive, cap, rng):
    while len(archive) > cap:
        archive.pop(int(rng.integers(0, len(archive))))


def _current_to_pbest(budget, lo, hi, pop_size, rng, x0, memory,
                      shrink=False):
    """current-to-pbest/1/bin with an archive of replaced targets; a
    fresh `memory()` draws each member's CR, F and p-best fraction and
    learns from the successful ones; with `shrink`, the population
    shrinks linearly in evaluations (LSHADE)."""
    memory = memory()
    archive = []
    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    while not budget.exhausted:
        n = len(X)
        arr, farr = X.copy(), f.copy()  # breed from the old generation
        s_cr, s_f, gains = [], [], []
        for i in range(n):
            cr_i, f_i, p_i = memory.draw(rng, n)
            pbest = _pbest_index(farr, p_i, rng)
            donor = _ctpb1(arr, archive, i, pbest, f_i, rng)
            trial = np.clip(binomial_crossover(arr[i], donor, cr_i, rng),
                            lo, hi)
            tf = budget.eval(trial)
            if tf <= farr[i]:
                if tf < farr[i]:
                    archive.append(arr[i].copy())
                    _trim_archive(archive, n, rng)
                    s_cr.append(cr_i)
                    s_f.append(f_i)
                    gains.append(farr[i] - tf)
                X[i], f[i] = trial, tf
        if s_f:
            memory.update(np.array(s_cr), np.array(s_f), np.array(gains))
        if shrink:
            target = lshade_population_size(pop_size, budget.used,
                                            budget.limit)
            if target < n:
                keep = np.argsort(f)[:target]
                X, f = X[keep], f[keep]
                _trim_archive(archive, target, rng)
