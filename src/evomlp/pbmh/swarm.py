"""Particle-swarm family: canonical PSO plus four published variants.

The velocity rules live in standalone functions so they can be exercised
directly; the run_* drivers wire them to populations, bound clamping and
the shared evaluation budget.
"""

import numpy as np

from .core import init_population

PSO_CONSTANTS = {
    "c1": 2.05,
    "c2": 2.05,
    "inertia_max": 0.9,
    "inertia_min": 0.4,
}

HPSO_CONSTANTS = {
    "c1_start": 2.5, "c1_end": 0.5,
    "c2_start": 0.5, "c2_end": 2.5,
    "stagnation_limit": 5,
    "reinit_step_start": 1.0, "reinit_step_end": 0.1,
}

CPSO_CONSTANTS = dict(PSO_CONSTANTS, chaos_points=10, chaos_radius_frac=0.1)

CLPSO_CONSTANTS = {
    "c_local": 1.2,
    "inertia_max": 0.9,
    "inertia_min": 0.4,
    "refreshing_gap": 7,
    "pc_low": 0.05,
    "pc_high": 0.5,
}

PPSO_CONSTANTS = {"theta_update": "theta += |cos(theta)+sin(theta)|*2*pi"}


def pso_velocity(v, x, p, g, w, c1, c2, r1, r2):
    """Inertia + cognitive pull toward the personal best + social pull
    toward the global best."""
    return w * v + c1 * r1 * (p - x) + c2 * r2 * (g - x)


def aiwf(f, f_avg, f_min, w_min, w_max):
    """Adaptive inertia: worse-than-average members get the full inertia,
    better ones interpolate down toward w_min as they approach the best."""
    if f >= f_avg:
        return w_max
    if f_avg == f_min:  # everyone equal; treat as best-like
        return w_min
    return w_min + (w_max - w_min) * (f - f_min) / (f_avg - f_min)


def clpso_velocity(v, x, exemplar, w, c, r):
    """Comprehensive-learning update: one attraction term toward a
    per-dimension exemplar assembled from personal bests."""
    return w * v + c * r * (exemplar - x)


def _signed_power(base, expo):
    # 0**0 resolved to 1 so coefficients stay continuous at axis angles
    if base == 0.0 and expo == 0.0:
        return 1.0
    return base ** expo


def ppso_velocity(theta, x, pbest, gbest):
    """Phasor update: the phase angle alone weights the two attractions."""
    a = _signed_power(abs(np.cos(theta)), 2.0 * np.sin(theta))
    b = _signed_power(abs(np.sin(theta)), 2.0 * np.cos(theta))
    return a * (pbest - x) + b * (gbest - x)


def logistic_map(z):
    """One chaotic step of the fully developed logistic map."""
    return 4.0 * z * (1.0 - z)


def _linear(start, end, progress):
    return start + (end - start) * progress


class _Swarm:
    """Positions, zero-init velocities, personal bests, global best."""

    def __init__(self, budget, lo, hi, pop_size, rng, x0):
        self.X, self.f = init_population(budget, lo, hi, pop_size, rng, x0)
        self.V = np.zeros_like(self.X)
        self.pbest = self.X.copy()
        self.pbest_f = self.f.copy()

    @property
    def gbest_index(self):
        return int(np.argmin(self.pbest_f))

    @property
    def gbest(self):
        return self.pbest[self.gbest_index]

    def move_and_score(self, i, budget, lo, hi):
        """Clamp velocity/position, evaluate, refresh bests. Returns True
        when the personal best improved."""
        span = hi - lo
        self.V[i] = np.clip(self.V[i], -span, span)
        self.X[i] = np.clip(self.X[i] + self.V[i], lo, hi)
        self.f[i] = budget.eval(self.X[i])
        if self.f[i] < self.pbest_f[i]:
            self.pbest_f[i] = self.f[i]
            self.pbest[i] = self.X[i].copy()
            return True
        return False


def run_pso(budget, lo, hi, pop_size, rng, x0=None):
    c1, c2 = PSO_CONSTANTS["c1"], PSO_CONSTANTS["c2"]
    swarm = _Swarm(budget, lo, hi, pop_size, rng, x0)
    d = lo.size
    while not budget.exhausted:
        w = _linear(PSO_CONSTANTS["inertia_max"],
                    PSO_CONSTANTS["inertia_min"], budget.progress)
        g = swarm.gbest.copy()
        for i in range(pop_size):
            swarm.V[i] = pso_velocity(
                swarm.V[i], swarm.X[i], swarm.pbest[i], g,
                w, c1, c2, rng.random(d), rng.random(d))
            swarm.move_and_score(i, budget, lo, hi)


def run_hpso(budget, lo, hi, pop_size, rng, x0=None):
    """Inertia-free PSO with time-varying acceleration; particles whose
    personal best stalls for 5 generations get their velocity re-seeded
    with a shrinking mutation step."""
    cfg = HPSO_CONSTANTS
    swarm = _Swarm(budget, lo, hi, pop_size, rng, x0)
    d = lo.size
    span = hi - lo
    stalled = np.zeros(pop_size, dtype=int)
    while not budget.exhausted:
        progress = budget.progress
        c1 = _linear(cfg["c1_start"], cfg["c1_end"], progress)
        c2 = _linear(cfg["c2_start"], cfg["c2_end"], progress)
        step = _linear(cfg["reinit_step_start"], cfg["reinit_step_end"],
                       progress) * span
        g = swarm.gbest.copy()
        for i in range(pop_size):
            if stalled[i] >= cfg["stagnation_limit"]:
                swarm.V[i] = rng.uniform(-step, step)
                stalled[i] = 0
            else:
                swarm.V[i] = pso_velocity(
                    swarm.V[i], swarm.X[i], swarm.pbest[i], g,
                    0.0, c1, c2, rng.random(d), rng.random(d))
            improved = swarm.move_and_score(i, budget, lo, hi)
            stalled[i] = 0 if improved else stalled[i] + 1


def run_cpso(budget, lo, hi, pop_size, rng, x0=None):
    """PSO with fitness-adaptive inertia plus a chaotic local search that
    samples logistic-map points in a shrinking box around the best."""
    cfg = CPSO_CONSTANTS
    swarm = _Swarm(budget, lo, hi, pop_size, rng, x0)
    d = lo.size
    span = hi - lo
    z = rng.uniform(0.01, 0.99, d)
    gbest = swarm.gbest.copy()
    gbest_f = swarm.pbest_f[swarm.gbest_index]
    while not budget.exhausted:
        f_avg = float(np.mean(swarm.f))
        f_min = float(np.min(swarm.f))
        for i in range(pop_size):
            w = aiwf(swarm.f[i], f_avg, f_min,
                     cfg["inertia_min"], cfg["inertia_max"])
            swarm.V[i] = pso_velocity(
                swarm.V[i], swarm.X[i], swarm.pbest[i], gbest,
                w, cfg["c1"], cfg["c2"], rng.random(d), rng.random(d))
            swarm.move_and_score(i, budget, lo, hi)
        if swarm.pbest_f[swarm.gbest_index] < gbest_f:
            gbest = swarm.gbest.copy()
            gbest_f = swarm.pbest_f[swarm.gbest_index]
        radius = cfg["chaos_radius_frac"] * (1.0 - budget.progress) * span
        for _ in range(cfg["chaos_points"]):
            z = logistic_map(z)
            cand = np.clip(gbest + radius * (2.0 * z - 1.0), lo, hi)
            cand_f = budget.eval(cand)
            if cand_f < gbest_f:
                gbest, gbest_f = cand, cand_f


def _clpso_pc(pop_size):
    """Exponential learning-probability profile between 0.05 and 0.5."""
    i = np.arange(pop_size)
    ramp = (np.exp(10 * i / (pop_size - 1)) - 1) / (np.exp(10) - 1)
    low, high = CLPSO_CONSTANTS["pc_low"], CLPSO_CONSTANTS["pc_high"]
    return low + (high - low) * ramp


def _build_exemplar(i, pc_i, pbest_f, d, rng):
    """Per-dimension exemplar indices: own pbest by default, else the
    fitter of two random others; at least one foreign dimension."""
    exemplar = np.full(d, i, dtype=int)
    for j in range(d):
        if rng.random() < pc_i:
            a = int(rng.integers(0, pbest_f.size))
            b = int(rng.integers(0, pbest_f.size))
            exemplar[j] = a if pbest_f[a] <= pbest_f[b] else b
    if np.all(exemplar == i):
        j = int(rng.integers(0, d))
        other = i
        while other == i:
            other = int(rng.integers(0, pbest_f.size))
        exemplar[j] = other
    return exemplar


def run_clpso(budget, lo, hi, pop_size, rng, x0=None):
    cfg = CLPSO_CONSTANTS
    swarm = _Swarm(budget, lo, hi, pop_size, rng, x0)
    d = lo.size
    pc = _clpso_pc(pop_size)
    exemplars = [_build_exemplar(i, pc[i], swarm.pbest_f, d, rng)
                 for i in range(pop_size)]
    stalled = np.zeros(pop_size, dtype=int)
    while not budget.exhausted:
        w = _linear(cfg["inertia_max"], cfg["inertia_min"], budget.progress)
        for i in range(pop_size):
            if stalled[i] >= cfg["refreshing_gap"]:
                exemplars[i] = _build_exemplar(i, pc[i], swarm.pbest_f, d,
                                               rng)
                stalled[i] = 0
            target = swarm.pbest[exemplars[i], np.arange(d)]
            swarm.V[i] = clpso_velocity(swarm.V[i], swarm.X[i], target,
                                        w, cfg["c_local"], rng.random(d))
            improved = swarm.move_and_score(i, budget, lo, hi)
            stalled[i] = 0 if improved else stalled[i] + 1


def run_ppso(budget, lo, hi, pop_size, rng, x0=None):
    swarm = _Swarm(budget, lo, hi, pop_size, rng, x0)
    theta = rng.uniform(0.0, 2.0 * np.pi, pop_size)
    while not budget.exhausted:
        g = swarm.gbest.copy()
        for i in range(pop_size):
            swarm.V[i] = ppso_velocity(theta[i], swarm.X[i],
                                       swarm.pbest[i], g)
            swarm.move_and_score(i, budget, lo, hi)
            theta[i] = (theta[i] + abs(np.cos(theta[i]) + np.sin(theta[i]))
                        * 2.0 * np.pi) % (2.0 * np.pi)
