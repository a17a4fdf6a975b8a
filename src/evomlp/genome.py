"""Two-segment candidate-solution encoding for network search.

A candidate is a fixed block of 8 training hyperparameters followed by a
variable-length block of neuron counts, one gene per hidden layer. All genes
are real-valued so any continuous optimizer can move them; integer genes
(solver choice, neuron counts) are rounded and clamped only at decode time.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import solvers

# Key order defines the vector layout of the fixed segment; the solver
# gene spans the ids of solvers.RULES.
HYPER_BOUNDS = {
    "learning_rate": (0.0, 1.0),
    "weight_decay": (0.0, 0.2),
    "rho": (0.0, 1.0),
    "beta1": (0.8, 1.0),
    "beta2": (0.8, 1.0),
    "lambda": (0.0, 1.0),
    "momentum": (0.0, 1.0),
    "solver": (1.0, float(len(solvers.SOLVER_NAMES))),
}
HYPER_FIELDS = tuple(HYPER_BOUNDS)


class CapacityError(ValueError):
    """Raised when a genome already has the maximum number of layers."""


def check_value(name, value, kind):
    """value as a field `name` annotated `kind` stores it; TypeError
    unless it is an integer (a bool does not count) for int, a finite
    real, stored as a float, for float, a list or tuple, stored as a
    tuple, for tuple, and an instance of kind for any other class."""
    if kind in (int, float) and isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, numbers.Integral)
    elif kind is float and isinstance(value, numbers.Real):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        ok = math.isfinite(value)
    elif kind is tuple and isinstance(value, list):
        value, ok = tuple(value), True
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise TypeError(f"{name} must be {'a finite ' * (kind is float)}"
                        f"{kind.__name__}, got {value!r}")
    return value


def check_fields(instance, none_ok=()):
    """check_value for each field of a dataclass instance, storing what
    it returns. None passes where the field's default is None or its
    annotation is in none_ok."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if value is None and (f.default is None or f.type in none_ok):
            continue
        object.__setattr__(instance, f.name,
                           check_value(f.name, value, f.type))


def build(cls, raw, context):
    """cls(**raw) for a parsed JSON value raw; ValueError unless raw is an
    object whose keys are fields of cls, and for a TypeError of the
    constructor (a missing key, a value check_fields refuses). The
    dataclass supplies every default."""
    if not isinstance(raw, dict):
        raise ValueError(f"{context} must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(
            f"unknown {context} keys: {', '.join(sorted(unknown))}")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ValueError(f"invalid {context}: {exc}") from None


def round_half_away(x):
    """Round to nearest integer, ties away from zero (np.round would
    banker's-round 2.5 to 2)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class SearchSpace:
    """Bounds for every gene plus the layer budget."""

    neuron_min: int = 1
    neuron_max: int = 400
    max_layers: int = 8

    def __post_init__(self):
        check_fields(self)
        if self.neuron_min < 1:
            raise ValueError("neuron_min must be >= 1")
        if self.neuron_min > self.neuron_max:
            raise ValueError(
                f"neuron_min {self.neuron_min} exceeds neuron_max "
                f"{self.neuron_max}")
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")

    def vector_bounds(self, n_layers):
        """Lower/upper bound arrays for an n_layers genome vector."""
        lo, hi = zip(*HYPER_BOUNDS.values())
        return (np.array(lo + (float(self.neuron_min),) * n_layers),
                np.array(hi + (float(self.neuron_max),) * n_layers))


class HyperparamVector(NamedTuple):
    """The fixed 8-gene segment, one field per HYPER_FIELDS entry in that
    order. `lam` carries the "lambda" gene (keyword clash) and
    `solver_gene` the real-valued solver selector."""

    learning_rate: float
    weight_decay: float
    rho: float
    beta1: float
    beta2: float
    lam: float
    momentum: float
    solver_gene: float


@dataclass(frozen=True)
class Genome:
    """hyper segment + one real neuron gene per hidden layer."""

    hyper: HyperparamVector
    neurons: tuple

    @property
    def n_layers(self):
        return len(self.neurons)

    def to_vector(self):
        return np.array(self.hyper + self.neurons, dtype=float)

    @classmethod
    def from_vector(cls, vec):
        genes = np.asarray(vec, dtype=float).tolist()
        if len(genes) < len(HYPER_FIELDS) + 1:
            raise ValueError("vector too short for a 1-layer genome")
        return cls(hyper=HyperparamVector(*genes[:len(HYPER_FIELDS)]),
                   neurons=tuple(genes[len(HYPER_FIELDS):]))

    def to_dict(self):
        return dict(zip(HYPER_FIELDS, self.hyper),
                    neurons=list(self.neurons))


@dataclass(frozen=True)
class NetworkSpec:
    """Decoded, trainable description: integer layer sizes, the chosen
    solver, and only the hyperparameters that solver consumes."""

    hidden_layer_sizes: tuple
    solver_id: int
    active_params: dict

    @property
    def solver_name(self):
        return solvers.SOLVER_NAMES[self.solver_id]


def random_genome(space, n_layers, rng):
    """Draw a uniform genome with `n_layers` neuron genes.

    Raises ValueError when n_layers is outside [1, space.max_layers].
    """
    if not 1 <= n_layers <= space.max_layers:
        raise ValueError(
            f"n_layers={n_layers} outside [1, {space.max_layers}]")
    lo, hi = space.vector_bounds(n_layers)
    return Genome.from_vector(rng.uniform(lo, hi))


def selective_exclusion(solver_id, hyper):
    """Keep only the hyperparameters the chosen solver consumes.

    The remaining genes stay in the genome (the optimizer keeps moving
    them) but never reach training.
    """
    if solver_id not in _CONSUMED_AT:
        solvers.consumed_parameters(solver_id)  # raises for an unknown id
    return {name: hyper[i] for name, i in _CONSUMED_AT[solver_id]}


# per solver id: its consumed hyperparameters, sorted by name, with
# their positions in HYPER_FIELDS
_CONSUMED_AT = {sid: tuple((name, HYPER_FIELDS.index(name))
                           for name in sorted(consumed))
                for sid, consumed in solvers.CONSUMED.items()}


def _round_into(gene, lo, hi):
    """round_half_away(gene) clipped to the integers lo..hi, for lo >= 1.

    Clipping before rounding gives the same integer, since lo and hi are
    integers, and leaves a positive value, which rounds half away from
    zero as floor(value + 0.5)."""
    return math.floor(min(max(gene, lo), hi) + 0.5)


def decode(genome, space):
    """Realize a genome as a NetworkSpec (pure, total on valid genomes)."""
    solver_id = _round_into(genome.hyper.solver_gene, 1,
                            len(solvers.SOLVER_NAMES))
    return NetworkSpec(
        hidden_layer_sizes=tuple(
            _round_into(gene, space.neuron_min, space.neuron_max)
            for gene in genome.neurons),
        solver_id=solver_id,
        active_params=selective_exclusion(solver_id, genome.hyper),
    )


def grow(genome, space, rng):
    """Append one uniform-random neuron gene, keeping everything else.

    Raises CapacityError once the genome already has max_layers layers.
    """
    if genome.n_layers >= space.max_layers:
        raise CapacityError(
            f"genome already has {genome.n_layers} layers "
            f"(max {space.max_layers})")
    new_gene = float(rng.uniform(space.neuron_min, space.neuron_max))
    return Genome(hyper=genome.hyper, neurons=genome.neurons + (new_gene,))


def mid_range_hyper():
    """Hyperparameter vector at the midpoint of every bound interval."""
    return HyperparamVector(
        *(0.5 * (lo + hi) for lo, hi in HYPER_BOUNDS.values()))
