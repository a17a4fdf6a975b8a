"""Particle-swarm family: canonical PSO plus four published variants,
on one flight loop.

`_fly` owns the particle. Each generation it moves every particle in
turn: it clamps the velocity to +-span (span = hi - lo), moves the
position and clips it to the box, scores it with `budget.eval`,
refreshes the personal best, and counts the particle's stall (the
generations since its personal best last improved; 0 after an
improvement).

A variant supplies only what differs. It is a generator over the swarm
that yields one velocity rule per generation, a function of the
particle index; the code before each yield is the generation's
schedule, and the code after it runs once every particle has moved.

PSO, HPSO and PPSO pull toward the global best as snapshotted at the
start of each generation.

- PSO: linearly falling inertia.
- HPSO: no inertia, c1 falling and c2 rising over the run; a particle
  stalled for 5 generations gets a random velocity within a shrinking
  step instead, and its stall count restarts.
- CPSO: fitness-adaptive inertia from the generation's f_avg and f_min,
  pulling toward its own global best, which after the particles have
  moved also takes the points of a chaotic local search around it.
- CLPSO: one pull toward a per-dimension exemplar of personal bests,
  rebuilt for a particle stalled for 7 generations.
- PPSO: a per-particle phase angle alone weights the two pulls, and
  advances after each use.

The velocity rules themselves are standalone functions, so they can be
exercised directly.
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
    """Positions, zero-init velocities, personal bests, and each
    particle's stall count."""

    def __init__(self, budget, lo, hi, pop_size, rng, x0):
        self.X, self.f = init_population(budget, lo, hi, pop_size, rng, x0)
        self.V = np.zeros_like(self.X)
        self.pbest = self.X.copy()
        self.pbest_f = self.f.copy()
        self.stalled = np.zeros(pop_size, dtype=int)

    def best(self):
        """A copy of the best personal best, and its fitness."""
        i = np.argmin(self.pbest_f)
        return self.pbest[i].copy(), self.pbest_f[i]


def _fly(budget, lo, hi, pop_size, rng, x0=None, *, variant):
    """Fly a swarm until the budget ends the run, each generation moving
    every particle by the velocity rule the variant yields."""
    swarm = _Swarm(budget, lo, hi, pop_size, rng, x0)
    span = hi - lo
    for velocity in variant(swarm, budget, lo, hi, rng):
        for i in range(pop_size):
            swarm.V[i] = np.clip(velocity(i), -span, span)
            swarm.X[i] = np.clip(swarm.X[i] + swarm.V[i], lo, hi)
            swarm.f[i] = budget.eval(swarm.X[i])
            improved = swarm.f[i] < swarm.pbest_f[i]
            swarm.stalled[i] = 0 if improved else swarm.stalled[i] + 1
            if improved:
                swarm.pbest[i], swarm.pbest_f[i] = swarm.X[i], swarm.f[i]


# Each variant's velocity rule reads the schedule its loop sets before
# each yield.

def _pso(swarm, budget, lo, hi, rng):
    cfg = PSO_CONSTANTS
    d = lo.size

    def velocity(i):
        return pso_velocity(swarm.V[i], swarm.X[i], swarm.pbest[i], g, w,
                            cfg["c1"], cfg["c2"], rng.random(d),
                            rng.random(d))

    while not budget.exhausted:
        w = _linear(cfg["inertia_max"], cfg["inertia_min"], budget.progress)
        g, _ = swarm.best()
        yield velocity


def _hpso(swarm, budget, lo, hi, rng):
    cfg = HPSO_CONSTANTS
    d = lo.size

    def velocity(i):
        if swarm.stalled[i] >= cfg["stagnation_limit"]:
            swarm.stalled[i] = 0
            return rng.uniform(-step, step)
        return pso_velocity(swarm.V[i], swarm.X[i], swarm.pbest[i], g, 0.0,
                            c1, c2, rng.random(d), rng.random(d))

    while not budget.exhausted:
        c1 = _linear(cfg["c1_start"], cfg["c1_end"], budget.progress)
        c2 = _linear(cfg["c2_start"], cfg["c2_end"], budget.progress)
        step = _linear(cfg["reinit_step_start"], cfg["reinit_step_end"],
                       budget.progress) * (hi - lo)
        g, _ = swarm.best()
        yield velocity


def _cpso(swarm, budget, lo, hi, rng):
    cfg = CPSO_CONSTANTS
    d = lo.size
    z = rng.uniform(0.01, 0.99, d)
    gbest, gbest_f = swarm.best()

    def velocity(i):
        w = aiwf(swarm.f[i], f_avg, f_min,
                 cfg["inertia_min"], cfg["inertia_max"])
        return pso_velocity(swarm.V[i], swarm.X[i], swarm.pbest[i], gbest, w,
                            cfg["c1"], cfg["c2"], rng.random(d),
                            rng.random(d))

    while not budget.exhausted:
        f_avg, f_min = float(np.mean(swarm.f)), float(np.min(swarm.f))
        yield velocity
        best, best_f = swarm.best()
        if best_f < gbest_f:
            gbest, gbest_f = best, best_f
        radius = (cfg["chaos_radius_frac"] * (1.0 - budget.progress)
                  * (hi - lo))
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


def _clpso(swarm, budget, lo, hi, rng):
    cfg = CLPSO_CONSTANTS
    d = lo.size
    pc = _clpso_pc(swarm.f.size)
    exemplars = [_build_exemplar(i, pc[i], swarm.pbest_f, d, rng)
                 for i in range(swarm.f.size)]

    def velocity(i):
        if swarm.stalled[i] >= cfg["refreshing_gap"]:
            exemplars[i] = _build_exemplar(i, pc[i], swarm.pbest_f, d, rng)
            swarm.stalled[i] = 0
        target = swarm.pbest[exemplars[i], np.arange(d)]
        return clpso_velocity(swarm.V[i], swarm.X[i], target, w,
                              cfg["c_local"], rng.random(d))

    while not budget.exhausted:
        w = _linear(cfg["inertia_max"], cfg["inertia_min"], budget.progress)
        yield velocity


def _ppso(swarm, budget, lo, hi, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, swarm.f.size)

    def velocity(i):
        v = ppso_velocity(theta[i], swarm.X[i], swarm.pbest[i], g)
        theta[i] = (theta[i] + abs(np.cos(theta[i]) + np.sin(theta[i]))
                    * 2.0 * np.pi) % (2.0 * np.pi)
        return v

    while not budget.exhausted:
        g, _ = swarm.best()
        yield velocity
