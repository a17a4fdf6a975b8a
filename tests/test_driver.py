import concurrent.futures
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evomlp.data import inject_missing, synthesize
from evomlp.driver import (RunRecord, SearchConfig, config_manifest,
                           layer_growth_search, load_records, run_benchmark)
from evomlp.genome import SearchSpace, build
from evomlp.objective import EvalConfig, FoldSplit
from evomlp.seeding import derive_seed

SRC = Path(__file__).resolve().parents[1] / "src"


def tiny_config(**overrides):
    base = dict(
        stage_budget=8, population_size=4, repeats=2,
        missing_rates=(0.0, 0.4), algorithms=("DE", "PSO"),
        eval=EvalConfig(folds=2, epochs=2, batch_size=16, seed=0),
        master_seed=7,
        space=SearchSpace(neuron_min=1, neuron_max=8, max_layers=2),
    )
    base.update(overrides)
    return SearchConfig(**base)


@pytest.fixture(scope="module")
def blob_data():
    return synthesize(60, 4, 3, separation=3.0, seed=5)


def test_seed_derive_deterministic_and_order_free():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)
    # derivation depends only on the labels, not on call order
    first = derive_seed(0, "run", "DE", 0.1, 3)
    derive_seed(0, "other", "noise")
    assert derive_seed(0, "run", "DE", 0.1, 3) == first


def test_seed_derive_no_collisions_over_grid():
    algorithms = [f"alg{i}" for i in range(13)]
    seeds = {
        derive_seed(0, "run", alg, rate, rep)
        for alg in algorithms
        for rate in (0.0, 0.05, 0.2, 0.4)
        for rep in range(10)
    }
    assert len(seeds) == 13 * 4 * 10


def test_layer_growth_budget_ledger(blob_data):
    cfg = tiny_config()
    record = layer_growth_search("DE", blob_data, cfg, seed=1)
    assert record.n_evaluations == cfg.space.max_layers * cfg.stage_budget
    assert [len(t) for t in record.stage_traces] == [cfg.stage_budget] * 2


def test_layer_growth_default_ledger_is_240(blob_data, monkeypatch):
    # full-scale defaults: 8 layer stages x 30 evaluations; evaluation is
    # stubbed so only the accounting is exercised
    import evomlp.driver as driver_mod
    from evomlp.objective import EvalResult

    def fake_evaluate(genome, ds, cfg, space=None):
        fitness = float(np.sum(np.array(genome.neurons) ** 2) % 100.0)
        return EvalResult(fitness=fitness, accuracy=100.0 - fitness,
                          f_measure=100.0 - fitness, per_fold=())

    monkeypatch.setattr(driver_mod.objective, "evaluate", fake_evaluate)
    cfg = SearchConfig()  # paper-scale defaults
    record = layer_growth_search("GA", blob_data, cfg, seed=0)
    assert record.n_evaluations == 8 * 30 == 240
    assert len(record.stage_traces) == 8


def test_layer_growth_single_stage(blob_data):
    cfg = tiny_config(space=SearchSpace(neuron_min=1, neuron_max=8,
                                        max_layers=1))
    record = layer_growth_search("DE", blob_data, cfg, seed=1)
    assert record.n_evaluations == cfg.stage_budget
    assert len(record.stage_traces) == 1


def test_layer_growth_best_is_global_min(blob_data):
    cfg = tiny_config()
    record = layer_growth_search("PSO", blob_data, cfg, seed=2)
    flat = [f for trace in record.stage_traces for f in trace]
    assert record.fitness == min(flat)
    assert record.accuracy == pytest.approx(100.0 - record.fitness)
    assert 1 <= len(record.architecture["hidden_layer_sizes"]) <= 2
    assert record.architecture["solver_name"]
    assert "learning_rate" in record.architecture


def test_layer_growth_deterministic(blob_data):
    cfg = tiny_config()
    a = layer_growth_search("DE", blob_data, cfg, seed=3, deterministic=True)
    b = layer_growth_search("DE", blob_data, cfg, seed=3, deterministic=True)
    assert a.to_dict() == b.to_dict()


def test_run_record_round_trip(blob_data):
    cfg = tiny_config()
    record = layer_growth_search("DE", blob_data, cfg, seed=4)
    clone = build(RunRecord,
                  json.loads(json.dumps(record.to_dict(), sort_keys=True)),
                  "record")
    assert clone.to_dict() == record.to_dict()


@pytest.mark.parametrize("field, value", [("algorithms", "DE"),
                                          ("missing_rates", 0.2)])
def test_search_config_refuses_a_scalar_for_a_tuple(field, value):
    # a string would otherwise run a grid of the algorithms "D" and "E"
    with pytest.raises(TypeError, match=f"{field} must be tuple"):
        SearchConfig(**{field: value})


def test_benchmark_grid_cardinality(blob_data, tmp_path):
    cfg = tiny_config()
    out = tmp_path / "results.jsonl"
    records = run_benchmark(blob_data, cfg, out_path=str(out),
                            deterministic=True)
    assert len(records) == 2 * 2 * 2  # rates x algorithms x repeats
    cells = {(r.algorithm, r.missing_rate, r.repeat) for r in records}
    assert len(cells) == len(records)
    loaded = load_records(str(out))
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def test_benchmark_deterministic_reproduces_accuracy(blob_data):
    cfg = tiny_config(repeats=1, algorithms=("DE",))
    a = run_benchmark(blob_data, cfg, deterministic=True)
    b = run_benchmark(blob_data, cfg, deterministic=True)
    assert [r.accuracy for r in a] == [r.accuracy for r in b]
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_benchmark_one_name_per_algorithm(blob_data):
    # the cell seeds hash the algorithm's name, so "de" must become "DE"
    runs = [[r.to_dict() for r in run_benchmark(
        blob_data, tiny_config(repeats=1, missing_rates=(0.4,),
                               algorithms=names), deterministic=True)]
        for names in (("de", "cmaes"), ("DE", "CMA-ES"))]
    assert runs[0] == runs[1]


def test_benchmark_failed_cell_recorded_and_skipped(blob_data):
    cfg = tiny_config(algorithms=("DE", "bogus"), repeats=1)
    records = run_benchmark(blob_data, cfg, deterministic=True)
    assert len(records) == 4
    failed = [r for r in records if r.error]
    assert len(failed) == 2  # the bogus algorithm in both rates
    assert all(r.algorithm == "bogus" for r in failed)
    assert all(not r.error for r in records if r.algorithm == "DE")


def test_benchmark_rejects_masked_dataset(blob_data):
    masked = inject_missing(blob_data, 0.2, seed=0)
    with pytest.raises(ValueError, match="missing entries"):
        run_benchmark(masked, tiny_config())


def test_benchmark_parallel_matches_sequential(blob_data):
    cfg = tiny_config(repeats=1)
    sequential = run_benchmark(blob_data, cfg, deterministic=True, jobs=1)
    parallel = run_benchmark(blob_data, cfg, deterministic=True, jobs=2)
    assert [r.to_dict() for r in sequential] \
        == [r.to_dict() for r in parallel]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers share the parent's splits under fork")
def test_benchmark_pool_never_pickles_a_split(blob_data, monkeypatch):
    cfg = tiny_config(repeats=1)
    sequential = run_benchmark(blob_data, cfg, deterministic=True)

    def refuse(self, protocol):
        raise AssertionError("a FoldSplit was pickled")

    monkeypatch.setattr(FoldSplit, "__reduce_ex__", refuse)
    parallel = run_benchmark(blob_data, cfg, deterministic=True, jobs=2)
    assert [r.to_dict() for r in parallel] \
        == [r.to_dict() for r in sequential]


@pytest.mark.parametrize("algorithms, started", [
    (("DE", "PSO"), [2]),  # 2 cells at jobs=3: 2 workers
    (("DE",), []),  # 1 cell: run in-process, no pool
])
def test_benchmark_pool_starts_a_worker_per_cell_at_most(
        blob_data, monkeypatch, algorithms, started):
    cfg = tiny_config(algorithms=algorithms, repeats=1,
                      missing_rates=(0.0,))
    workers = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        Recording)
    records = run_benchmark(blob_data, cfg, deterministic=True, jobs=3)
    assert workers == started
    assert [r.to_dict() for r in records] == [
        r.to_dict() for r in run_benchmark(blob_data, cfg,
                                           deterministic=True)]


DEAD_WORKER = """
import os, sys
from concurrent.futures.process import BrokenProcessPool
sys.path.insert(0, sys.argv[1])
from evomlp import driver
from evomlp.data import synthesize
from evomlp.genome import SearchSpace, build
from evomlp.objective import EvalConfig

def die(*args, **kwargs):
    os._exit(1)

driver.layer_growth_search = die
cfg = driver.SearchConfig(
    stage_budget=4, population_size=4, repeats=2, missing_rates=(0.0,),
    algorithms=("DE",), eval=EvalConfig(folds=2, epochs=1),
    space=SearchSpace(neuron_min=1, neuron_max=4, max_layers=1))
try:
    driver.run_benchmark(synthesize(20, 3, 3, 3.0, seed=0), cfg, jobs=2)
except BrokenProcessPool:
    print("BrokenProcessPool")
"""


def test_benchmark_raises_when_a_worker_dies():
    # in its own session, so a run that waits forever can be killed
    # with every worker it forked
    proc = subprocess.Popen([sys.executable, "-c", DEAD_WORKER, str(SRC)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        proc.communicate()
        pytest.fail("run_benchmark still waits 60 s after a worker died")
    assert out == "BrokenProcessPool\n", err[-2000:]


def test_wall_time_omitted_when_deterministic(blob_data):
    cfg = tiny_config(repeats=1, algorithms=("DE",),
                      missing_rates=(0.0,))
    rec = run_benchmark(blob_data, cfg, deterministic=True)[0]
    assert "wall_time" not in rec.to_dict()
    rec = run_benchmark(blob_data, cfg, deterministic=False)[0]
    assert rec.to_dict()["wall_time"] > 0


def test_manifest_contents():
    cfg = tiny_config()
    manifest = config_manifest(cfg, deterministic=True)
    assert manifest["config"]["stage_budget"] == 8
    assert "GA" in manifest["algorithm_constants"]
    assert manifest["solver_names"]["9"] == "Rprop"
    assert "created" not in manifest
    assert "created" in config_manifest(cfg, deterministic=False)
