"""Two-segment candidate-solution encoding for network search.

A candidate is a fixed block of 8 training hyperparameters followed by a
variable-length block of neuron counts, one gene per hidden layer. All genes
are real-valued so any continuous optimizer can move them; integer genes
(solver choice, neuron counts) are rounded and clamped only at decode time.
"""

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import solvers

# Field order defines the vector layout of the fixed segment.
HYPER_FIELDS = (
    "learning_rate",
    "weight_decay",
    "rho",
    "beta1",
    "beta2",
    "lambda",
    "momentum",
    "solver",
)

HYPER_BOUNDS = {
    "learning_rate": (0.0, 1.0),
    "weight_decay": (0.0, 0.2),
    "rho": (0.0, 1.0),
    "beta1": (0.8, 1.0),
    "beta2": (0.8, 1.0),
    "lambda": (0.0, 1.0),
    "momentum": (0.0, 1.0),
    "solver": (1.0, 10.0),
}


class CapacityError(ValueError):
    """Raised when a genome already has the maximum number of layers."""


def check_int_fields(instance):
    """TypeError unless every field of a dataclass instance annotated
    int holds an integer (a bool does not count)."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if f.type is int and (isinstance(value, bool)
                              or not isinstance(value, numbers.Integral)):
            raise TypeError(f"{f.name} must be an integer, got {value!r}")


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
        check_int_fields(self)
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
        lo = [HYPER_BOUNDS[f][0] for f in HYPER_FIELDS]
        hi = [HYPER_BOUNDS[f][1] for f in HYPER_FIELDS]
        lo += [float(self.neuron_min)] * n_layers
        hi += [float(self.neuron_max)] * n_layers
        return np.array(lo), np.array(hi)


@dataclass(frozen=True)
class HyperparamVector:
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

    def as_dict(self):
        return dict(zip(HYPER_FIELDS, self.values()))

    @classmethod
    def from_dict(cls, d):
        return cls(*(d[name] for name in HYPER_FIELDS))

    def values(self):
        return _hyper_values(self)


# not dataclasses.astuple, whose deep copy makes decode ~1.5x slower
_hyper_values = operator.attrgetter(
    *(f.name for f in fields(HyperparamVector)))


@dataclass(frozen=True)
class Genome:
    """hyper segment + one real neuron gene per hidden layer."""

    hyper: HyperparamVector
    neurons: tuple

    @property
    def n_layers(self):
        return len(self.neurons)

    def to_vector(self):
        return np.array(self.hyper.values() + self.neurons, dtype=float)

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.size < len(HYPER_FIELDS) + 1:
            raise ValueError("vector too short for a 1-layer genome")
        hyper = HyperparamVector(
            *(float(v) for v in vec[: len(HYPER_FIELDS)]))
        return cls(hyper=hyper,
                   neurons=tuple(float(v) for v in vec[len(HYPER_FIELDS):]))

    def to_dict(self):
        d = self.hyper.as_dict()
        d["neurons"] = list(self.neurons)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            hyper=HyperparamVector.from_dict(d),
            neurons=tuple(d["neurons"]),
        )


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
    values = hyper.values()
    return {name: values[i] for name, i in _CONSUMED_AT[solver_id]}


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
    mids = [0.5 * (lo + hi) for lo, hi in
            (HYPER_BOUNDS[f] for f in HYPER_FIELDS)]
    return HyperparamVector(*mids)
