import numpy as np
import pytest

from evomlp import pbmh
from evomlp.genome import Genome, SearchSpace, random_genome
from evomlp.pbmh import (ALGORITHM_NAMES, ConfigError,
                         NonFiniteObjectiveError, OptResult,
                         algorithm_constants, minimize, optimize_stage)
from evomlp.pbmh.core import tournament
from evomlp.pbmh.de import lshade_population_size
from evomlp.pbmh.swarm import (aiwf, clpso_velocity, logistic_map,
                               pso_velocity, ppso_velocity)

LO10 = np.full(10, -5.0)
HI10 = np.full(10, 5.0)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def test_registry_has_thirteen_algorithms():
    assert len(ALGORITHM_NAMES) == 13
    constants = algorithm_constants()
    assert set(constants) == set(ALGORITHM_NAMES)


def test_budget_exactness_all_algorithms():
    for alg in ALGORITHM_NAMES:
        for budget in (13, 30, 64):  # includes mid-generation truncation
            calls = []

            def counted(x):
                calls.append(np.array(x))
                return sphere(x)

            r = minimize(alg, counted, LO10, HI10, 10, budget, seed=3)
            assert len(calls) == budget, alg
            assert len(r.trace) == budget, alg


def test_runner_that_stops_short_is_refused(monkeypatch):
    def lazy(budget, lo, hi, pop_size, rng, x0=None):
        for _ in range(pop_size):
            budget.eval(rng.uniform(lo, hi))

    monkeypatch.setitem(pbmh._REGISTRY, "DE",
                        (lazy, pbmh._REGISTRY["DE"][1]))
    with pytest.raises(RuntimeError, match="DE spent 10 of 30 evaluations"):
        minimize("de", sphere, LO10, HI10, 10, 30, seed=0)


def test_bound_feasibility_all_algorithms():
    lo = np.array([0.0, -1.0, 2.0])
    hi = np.array([1.0, 1.0, 2.5])
    for alg in ALGORITHM_NAMES:
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return sphere(x)

        minimize(alg, recording, lo, hi, 6, 90, seed=1)
        stacked = np.vstack(seen)
        assert np.all(stacked >= lo - 1e-12), alg
        assert np.all(stacked <= hi + 1e-12), alg


def test_incumbent_is_min_of_trace():
    for alg in ALGORITHM_NAMES:
        r = minimize(alg, sphere, LO10, HI10, 10, 150, seed=7)
        assert r.fitness == min(r.trace), alg
        assert sphere(r.x) == pytest.approx(r.fitness), alg
        inc = r.incumbent_trace()
        assert np.all(np.diff(inc) <= 0), alg


def test_non_finite_objective_raises_all_algorithms():
    for alg in ALGORITHM_NAMES:
        for bad in (np.nan, np.inf):
            calls = []

            def spoiled(x):
                calls.append(1)
                return bad if len(calls) == 3 else sphere(x)

            with pytest.raises(NonFiniteObjectiveError,
                               match=f"{bad} at evaluation index 2"):
                minimize(alg, spoiled, LO10, HI10, 6, 30, seed=0)


def test_seed_determinism():
    for alg in ALGORITHM_NAMES:
        a = minimize(alg, sphere, LO10, HI10, 10, 120, seed=11)
        b = minimize(alg, sphere, LO10, HI10, 10, 120, seed=11)
        assert np.array_equal(a.trace, b.trace), alg
        assert np.array_equal(a.x, b.x), alg


def test_warm_start_is_evaluated_first_generation():
    x0 = np.zeros(10)  # sphere optimum

    def fn(x):
        return sphere(x)

    for alg in ALGORITHM_NAMES:
        r = minimize(alg, fn, LO10, HI10, 10, 40, seed=5, x0=x0)
        assert r.fitness == 0.0, alg  # injected optimum can never be lost


def test_scale_invariance_of_fixed_parameter_algorithms():
    # GA tournaments and DE selection only compare fitness values, so a
    # positive rescaling must leave every evaluated point identical
    for alg in ("GA", "DE"):
        runs = []
        for factor in (1.0, 5.0):
            seen = []

            def fn(x, k=factor):
                seen.append(np.array(x))
                return k * sphere(x)

            minimize(alg, fn, LO10, HI10, 10, 200, seed=9)
            runs.append(np.vstack(seen))
        assert np.array_equal(runs[0], runs[1]), alg


def test_scale_invariance_of_shade_admission():
    # SHADE/LSHADE adapt F/CR from improvement magnitudes, so later
    # candidates drift in the last ulp; the admission decisions of the
    # first generation (trial vs parent comparisons) must still match
    pop = 10
    for alg in ("SHADE", "LSHADE"):
        decision_runs = []
        for factor in (1.0, 5.0):
            fs = []

            def fn(x, k=factor):
                fs.append(k * sphere(x))
                return fs[-1]

            minimize(alg, fn, LO10, HI10, pop, 2 * pop, seed=9)
            parents = np.array(fs[:pop])
            trials = np.array(fs[pop:])
            decision_runs.append(trials <= parents)
        assert np.array_equal(decision_runs[0], decision_runs[1]), alg


def test_config_validation():
    with pytest.raises(ConfigError):
        minimize("GA", sphere, LO10, HI10, 3, 100, seed=0)  # pop < 4
    with pytest.raises(ConfigError):
        minimize("GA", sphere, LO10, HI10, 10, 5, seed=0)  # budget < pop
    with pytest.raises(ConfigError, match="nope"):
        minimize("nope", sphere, LO10, HI10, 10, 20, seed=0)


def test_pso_velocity_examples():
    assert pso_velocity(1.0, 0, 0, 0, 0.5, 0, 0, 1, 1) \
        == pytest.approx(0.5)
    v = pso_velocity(0.0, 0.0, 0.2, 0.4, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert v == pytest.approx(0.6)
    x = np.array([1.0, 2.0])
    assert np.allclose(pso_velocity(np.array([3.0, 4.0]), x, x, x,
                                    0.7, 2.05, 2.05, 0.3, 0.9),
                       [2.1, 2.8])


def test_aiwf_examples():
    assert aiwf(5.0, 5.0, 1.0, 0.4, 0.9) == 0.9     # f == f_avg
    assert aiwf(1.0, 5.0, 1.0, 0.4, 0.9) == 0.4     # f == f_min
    assert aiwf(3.0, 5.0, 1.0, 0.4, 0.9) == pytest.approx(0.65)
    assert aiwf(1.0, 1.0, 1.0, 0.4, 0.9) == 0.9     # degenerate, f >= avg


def test_clpso_velocity_examples():
    assert clpso_velocity(1.0, 2.0, 2.0, 0.5, 1.2, 0.7) \
        == pytest.approx(0.5)
    assert clpso_velocity(1.0, 0.0, 1.0, 0.5, 1.2, 1.0) \
        == pytest.approx(0.5 + 1.2)


def test_ppso_velocity_examples():
    x = np.array([1.0, 1.0])
    p = np.array([2.0, 0.0])
    g = np.array([0.0, 3.0])
    assert np.allclose(ppso_velocity(0.0, x, p, g), p - x)
    assert np.allclose(ppso_velocity(np.pi / 2, x, p, g), g - x,
                       atol=1e-9)
    coeff = (np.sqrt(2) / 2) ** np.sqrt(2)
    v = ppso_velocity(np.pi / 4, x, p, g)
    assert np.allclose(v, coeff * (p - x) + coeff * (g - x))
    assert coeff == pytest.approx(0.6125, abs=5e-4)


def test_tournament_picks_fitter():
    f = np.array([5.0, 1.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert tournament(f, rng) in (0, 1)
    # when both contenders are the same pair, the better one wins
    idx = [tournament(np.array([5.0, 1.0]), np.random.default_rng(s))
           for s in range(50)]
    assert 1 in idx
    assert all(f[i] <= 5.0 for i in idx)


def test_de_selection_prefers_better_trial():
    # DE keeps the incumbent best no matter what (elitism contract);
    # single-run check that trial wins propagate
    values = iter([5.0, 6.0, 7.0, 8.0, 3.0, 9.0, 9.0, 9.0])

    def fn(x):
        return next(values, 10.0)

    r = minimize("DE", fn, np.zeros(2), np.ones(2), 4, 8, seed=0)
    assert r.fitness == 3.0


def test_logistic_map_step():
    assert logistic_map(0.3) == pytest.approx(0.84)


def test_lshade_population_schedule():
    # pop 10, budget 2000: linear interpolation down to 4 at exhaustion
    assert lshade_population_size(10, 0, 2000) == 10
    assert lshade_population_size(10, 1000, 2000) == 7
    assert lshade_population_size(10, 2000, 2000) == 4
    sizes = [lshade_population_size(10, used, 2000)
             for used in range(0, 2001, 10)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 4


def test_optimize_stage_genome_contract():
    space = SearchSpace()
    seen = []

    def evaluator(genome):
        seen.append(genome)
        return float(np.sum(np.array(genome.neurons) ** 2))

    result = optimize_stage("PSO", space, 2, evaluator, 6, 25, 2)
    assert isinstance(result, OptResult)
    assert len(seen) == 25
    assert all(isinstance(g, Genome) and g.n_layers == 2 for g in seen)
    assert Genome.from_vector(result.x).n_layers == 2
    assert result.fitness == min(result.trace)


def test_optimize_stage_keeps_evaluator_return_of_best():
    space = SearchSpace()
    returned = {}

    class Score:
        def __init__(self, value):
            self.value = value

        def __float__(self):
            return self.value

    def evaluator(genome):
        score = Score(float(np.sum(np.array(genome.neurons) ** 2)))
        returned[genome.to_vector().tobytes()] = score
        return score

    result = optimize_stage("JADE", space, 2, evaluator, 6, 25, 4)
    assert result.value \
        is returned[Genome.from_vector(result.x).to_vector().tobytes()]
    assert float(result.value) == result.fitness == min(result.trace)


def test_optimize_stage_warm_start_layer_check():
    space = SearchSpace()
    warm = random_genome(space, 3, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        optimize_stage("DE", space, 2, lambda g: 0.0, 6, 12, 0,
                       warm_start=warm)


def test_optimize_stage_budget_below_population_rejected():
    with pytest.raises(ConfigError):
        optimize_stage("DE", SearchSpace(), 1, lambda g: 0.0, 10, 5, 0)
