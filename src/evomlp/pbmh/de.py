"""Differential evolution and its self-adaptive descendants.

Plain DE and SAP-DE mutate with current-to-rand/1 under fixed F/CR;
JADE, SHADE and LSHADE use their defining current-to-pbest/1 mutation
with an external archive and per-member adapted F/CR.
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


def _mutant_ctr1(X, i, rng, F):
    """current-to-rand/1 with a common scale factor for both differences."""
    r1, r2, r3 = distinct_indices(rng, X.shape[0], 3, {i})
    return X[i] + F * (X[r1] - X[i]) + F * (X[r2] - X[r3])


def run_de(budget, lo, hi, pop_size, rng, x0=None):
    F = DE_CONSTANTS["weighting_factor"]
    CR = DE_CONSTANTS["crossover_rate"]
    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    while not budget.exhausted:
        arr, farr = X.copy(), f.copy()  # breed from the old generation
        for i in range(pop_size):
            trial = np.clip(binomial_crossover(
                arr[i], _mutant_ctr1(arr, i, rng, F), CR, rng), lo, hi)
            tf = budget.eval(trial)
            if tf <= farr[i]:
                X[i], f[i] = trial, tf


def run_sapde(budget, lo, hi, pop_size, rng, x0=None):
    """Self-adaptive population size (ABS): each member carries its own
    population-size gene; the next generation's size is the rounded mean
    of the surviving genes."""
    F = SAPDE_CONSTANTS["weighting_factor"]
    CR = SAPDE_CONSTANTS["crossover_rate"]
    np_min = SAPDE_CONSTANTS["min_pop"]
    np_max = SAPDE_CONSTANTS["max_pop_factor"] * pop_size

    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    X = list(X)
    f = list(f)
    pi = [float(np.round(pop_size + rng.standard_normal()))
          for _ in range(pop_size)]

    while not budget.exhausted:
        n = len(X)
        arr = np.array(X)
        farr = np.array(f)
        for i in range(n):
            r1, r2, r3 = distinct_indices(rng, n, 3, {i})
            donor = arr[i] + F * (arr[r1] - arr[i]) + F * (arr[r2] - arr[r3])
            trial = np.clip(binomial_crossover(arr[i], donor, CR, rng), lo, hi)
            pi_trial = pi[i] + F * (pi[r1] - pi[i]) + F * (pi[r2] - pi[r3])
            tf = budget.eval(trial)
            if tf <= farr[i]:
                X[i], f[i], pi[i] = trial, tf, pi_trial

        target = int(np.clip(round(float(np.mean(pi))), np_min, np_max))
        if target < len(X):
            keep = np.argsort(f)[:target]
            X = [X[k] for k in keep]
            f = [f[k] for k in keep]
            pi = [pi[k] for k in keep]
        while target > len(X):
            newcomer = rng.uniform(lo, hi)
            X.append(newcomer)
            f.append(budget.eval(newcomer))
            pi.append(float(np.round(pop_size + rng.standard_normal())))


def lshade_population_size(pop_init, used, budget, min_pop=4):
    """Linear-in-evaluations reduction from pop_init down to min_pop."""
    target = round(pop_init - (pop_init - min_pop) * used / budget)
    return max(min_pop, int(target))


def _cauchy_factor(rng, loc, scale):
    """Cauchy draw truncated to (0, 1]: values above 1 clip, values at or
    below 0 are redrawn."""
    while True:
        value = loc + scale * rng.standard_cauchy()
        if value > 1:
            return 1.0
        if value > 0:
            return float(value)


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


def _push_archive(archive, member, cap, rng):
    archive.append(member.copy())
    while len(archive) > cap:
        archive.pop(int(rng.integers(0, len(archive))))


def run_jade(budget, lo, hi, pop_size, rng, x0=None):
    c = JADE_CONSTANTS["adaptation_rate"]
    p_frac = JADE_CONSTANTS["p_best_fraction"]
    mu_cr, mu_f = 0.5, 0.5
    archive = []

    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    while not budget.exhausted:
        arr, farr = X.copy(), f.copy()
        s_cr, s_f = [], []
        for i in range(pop_size):
            cr_i = float(np.clip(
                rng.normal(mu_cr, JADE_CONSTANTS["cr_sigma"]), 0, 1))
            f_i = _cauchy_factor(rng, mu_f, JADE_CONSTANTS["f_scale"])
            pbest = _pbest_index(farr, p_frac, rng)
            donor = _ctpb1(arr, archive, i, pbest, f_i, rng)
            trial = np.clip(binomial_crossover(arr[i], donor, cr_i, rng),
                         lo, hi)
            tf = budget.eval(trial)
            if tf <= farr[i]:
                if tf < farr[i]:
                    _push_archive(archive, arr[i], pop_size, rng)
                    s_cr.append(cr_i)
                    s_f.append(f_i)
                X[i], f[i] = trial, tf
        if s_f:
            mu_cr = (1 - c) * mu_cr + c * float(np.mean(s_cr))
            s_f = np.array(s_f)
            mu_f = (1 - c) * mu_f + c * float(s_f.dot(s_f) / s_f.sum())


def _shade_loop(budget, lo, hi, pop_size, rng, x0, shrink):
    H = SHADE_CONSTANTS["history_size"]
    mem_cr = np.full(H, 0.5)
    mem_f = np.full(H, 0.5)
    mem_pos = 0
    archive = []

    X, f = init_population(budget, lo, hi, pop_size, rng, x0)
    X = list(X)
    f = list(f)
    while not budget.exhausted:
        n = len(X)
        arr = np.array(X)
        farr = np.array(f)
        s_cr, s_f, deltas = [], [], []
        for i in range(n):
            slot = int(rng.integers(0, H))
            cr_i = float(np.clip(rng.normal(mem_cr[slot], 0.1), 0, 1))
            f_i = _cauchy_factor(rng, mem_f[slot], 0.1)
            p_i = rng.uniform(min(2.0 / n, 0.2), 0.2)
            pbest = _pbest_index(farr, p_i, rng)
            donor = _ctpb1(arr, archive, i, pbest, f_i, rng)
            trial = np.clip(binomial_crossover(arr[i], donor, cr_i, rng),
                         lo, hi)
            tf = budget.eval(trial)
            if tf <= farr[i]:
                if tf < farr[i]:
                    _push_archive(archive, arr[i], n, rng)
                    s_cr.append(cr_i)
                    s_f.append(f_i)
                    deltas.append(farr[i] - tf)
                X[i], f[i] = trial, tf
        if s_f:
            w = np.array(deltas)
            w = w / w.sum()
            s_cr = np.array(s_cr)
            s_f = np.array(s_f)
            mem_cr[mem_pos] = float(w.dot(s_cr))
            mem_f[mem_pos] = float(w.dot(s_f * s_f) / w.dot(s_f))
            mem_pos = (mem_pos + 1) % H

        if shrink:
            target = lshade_population_size(
                pop_size, budget.used, budget.limit,
                LSHADE_CONSTANTS["min_pop"])
            if target < len(X):
                keep = np.argsort(f)[:target]
                X = [X[k] for k in keep]
                f = [f[k] for k in keep]
                while len(archive) > target:
                    archive.pop(int(rng.integers(0, len(archive))))


def run_shade(budget, lo, hi, pop_size, rng, x0=None):
    _shade_loop(budget, lo, hi, pop_size, rng, x0, shrink=False)


def run_lshade(budget, lo, hi, pop_size, rng, x0=None):
    """SHADE with the population shrinking linearly in evaluations, down
    to 4 members at budget exhaustion."""
    _shade_loop(budget, lo, hi, pop_size, rng, x0, shrink=True)
