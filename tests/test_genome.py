import numpy as np
import pytest

from evomlp import solvers
from evomlp.genome import (CapacityError, Genome, HYPER_BOUNDS, HYPER_FIELDS,
                           HyperparamVector, SearchSpace, decode, grow,
                           mid_range_hyper, random_genome, round_half_away,
                           selective_exclusion)


@pytest.fixture
def space():
    return SearchSpace()


def test_random_genome_length_matches_request(space):
    g = random_genome(space, 1, np.random.default_rng(0))
    assert g.n_layers == 1
    g = random_genome(space, 5, np.random.default_rng(0))
    assert g.n_layers == 5


def test_random_genome_respects_table_bounds(space):
    for seed in range(50):
        g = random_genome(space, 3, np.random.default_rng(seed))
        for field, value in zip(HYPER_FIELDS, g.hyper):
            lo, hi = HYPER_BOUNDS[field]
            assert lo <= value <= hi, field
        for gene in g.neurons:
            assert space.neuron_min <= gene <= space.neuron_max


def test_random_genome_seeded_determinism(space):
    a = random_genome(space, 4, np.random.default_rng(99))
    b = random_genome(space, 4, np.random.default_rng(99))
    assert a == b


def test_random_genome_rejects_bad_layer_count(space):
    with pytest.raises(ValueError):
        random_genome(space, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_genome(space, space.max_layers + 1, np.random.default_rng(0))


def test_round_half_away_ties_away_from_zero():
    assert round_half_away(3.4) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(2.5) == 3  # np.round would give 2
    assert round_half_away(-2.5) == -3


def test_decode_rounds_solver_gene(space):
    hyper = mid_range_hyper()._replace(solver_gene=3.4)
    spec = decode(Genome(hyper=hyper, neurons=(10.0,)), space)
    assert spec.solver_id == 3


def test_decode_paper_architecture(space):
    # [302, 11] is a representable two-layer architecture
    g = Genome(hyper=mid_range_hyper(), neurons=(302.2, 11.4))
    spec = decode(g, space)
    assert spec.hidden_layer_sizes == (302, 11)


def test_decode_clamps_neurons(space):
    g = Genome(hyper=mid_range_hyper(), neurons=(0.2, 1e9))
    spec = decode(g, space)
    assert spec.hidden_layer_sizes == (space.neuron_min, space.neuron_max)


def test_decode_is_pure(space):
    g = random_genome(space, 2, np.random.default_rng(5))
    assert decode(g, space) == decode(g, space)


def test_decode_never_escapes_bounds(space):
    # bound edges and .5 ties included
    probes = [0.5, 1.0, 1.5, 399.5, 400.0, 400.49, -1e12, 1e12]
    for gene in probes:
        spec = decode(Genome(hyper=mid_range_hyper(), neurons=(gene,)),
                      space)
        assert space.neuron_min <= spec.hidden_layer_sizes[0] \
            <= space.neuron_max


def test_decode_equals_rounding_then_clipping_arrays():
    # decode's rule as array code: round half away from zero, then clip
    rng = np.random.default_rng(8)
    ties = [0.5, 1.5, 2.5, 3.5, 9.5, 10.5, 39.5, 40.5, 41.5]
    for space in (SearchSpace(), SearchSpace(neuron_min=3, neuron_max=40,
                                             max_layers=4)):
        for _ in range(300):
            genes = rng.uniform(-5.0, 50.0, size=6)
            genes[rng.random(6) < 0.3] = rng.choice(ties)
            genes[rng.random(6) < 0.1] = rng.choice([-np.inf, np.inf])
            genome = Genome(hyper=HyperparamVector(
                0.1, 0.0, 0.5, 0.9, 0.9, 0.5, 0.5, float(genes[0])),
                neurons=tuple(float(g) for g in genes[1:]))
            spec = decode(genome, space)
            assert spec.solver_id == int(np.clip(round_half_away(genes[0]),
                                                 1, len(solvers.SOLVER_NAMES)))
            assert spec.hidden_layer_sizes == tuple(
                int(s) for s in np.clip(round_half_away(genes[1:]),
                                        space.neuron_min, space.neuron_max))
            assert all(type(s) is int for s in spec.hidden_layer_sizes)


def test_selective_exclusion_adam():
    active = selective_exclusion(1, mid_range_hyper())
    assert set(active) == {"learning_rate", "beta1", "beta2",
                           "weight_decay"}


def test_selective_exclusion_sgd_and_rprop():
    assert set(selective_exclusion(10, mid_range_hyper())) == {
        "learning_rate", "momentum", "weight_decay"}
    assert set(selective_exclusion(9, mid_range_hyper())) == {
        "learning_rate"}


def test_selective_exclusion_matches_solver_declarations():
    hyper = mid_range_hyper()
    for solver_id in range(1, 11):
        active = selective_exclusion(solver_id, hyper)
        assert set(active) == set(solvers.consumed_parameters(solver_id))


def test_selective_exclusion_rejects_unknown_solver():
    with pytest.raises(ValueError):
        selective_exclusion(11, mid_range_hyper())
    with pytest.raises(ValueError):
        selective_exclusion(0, mid_range_hyper())


def test_grow_appends_one_gene(space):
    rng = np.random.default_rng(3)
    g1 = random_genome(space, 1, rng)
    g2 = grow(g1, space, rng)
    assert g2.n_layers == 2
    assert g2.neurons[0] == g1.neurons[0]
    assert g2.hyper == g1.hyper
    assert space.neuron_min <= g2.neurons[1] <= space.neuron_max


def test_grow_at_capacity_raises(space):
    rng = np.random.default_rng(3)
    g = random_genome(space, space.max_layers, rng)
    assert space.max_layers == 8
    with pytest.raises(CapacityError):
        grow(g, space, rng)


def test_vector_round_trip(space):
    g = random_genome(space, 3, np.random.default_rng(11))
    assert Genome.from_vector(g.to_vector()) == g


def test_hyper_segment_is_the_vector_head(space):
    g = random_genome(space, 2, np.random.default_rng(12))
    assert isinstance(mid_range_hyper(), tuple)
    assert tuple(g.hyper) == tuple(g.to_vector()[:len(HYPER_FIELDS)])


def test_dict_is_keyed_by_hyper_fields(space):
    g = random_genome(space, 2, np.random.default_rng(12))
    d = g.to_dict()
    assert list(d) == [*HYPER_FIELDS, "neurons"]
    assert set(d) == {"learning_rate", "weight_decay", "rho", "beta1",
                      "beta2", "lambda", "momentum", "solver", "neurons"}
    assert [d[name] for name in HYPER_FIELDS] == list(g.hyper)
    assert d["neurons"] == list(g.neurons)


def test_vector_bounds_dimension(space):
    lo, hi = space.vector_bounds(4)
    assert lo.size == hi.size == len(HYPER_FIELDS) + 4
    assert np.all(lo < hi)


def test_solver_table_is_one_table(space):
    rules = solvers.RULES
    assert list(solvers.SOLVER_NAMES.items()) == [
        (i, rule.__name__) for i, rule in enumerate(rules, 1)]
    assert list(solvers.CONSUMED.items()) == [
        (i, rule.CONSUMED) for i, rule in enumerate(rules, 1)]
    for sid, consumed in solvers.CONSUMED.items():
        assert consumed <= set(HYPER_FIELDS), solvers.SOLVER_NAMES[sid]
        solver = solvers.make_solver(
            solvers.SolverSpec(sid, selective_exclusion(sid,
                                                        mid_range_hyper())),
            [(2,)])
        assert type(solver) is rules[sid - 1]
    n = len(solvers.SOLVER_NAMES)
    lo, hi = space.vector_bounds(1)
    at = HYPER_FIELDS.index("solver")
    assert (lo[at], hi[at]) == (1.0, n)
    spec = decode(Genome.from_vector(hi), space)  # every gene at its top
    assert spec.solver_id == n
    assert spec.solver_name == rules[-1].__name__
