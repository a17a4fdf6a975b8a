"""Golden digests of `benchmark --deterministic` output.

A refactor or a speed-up of the training path must leave every score bit
for bit as it was, so these tests pin the sha256 of `results.jsonl` for
two configs against digests kept in golden_digests.json:

- "small": two algorithms on 10 folds of 403 rows, so the folds' training
  sets have two sizes, every epoch ends on a short batch, and, with
  STACK_PARAMS lowered for the test, a group of folds trains as several
  stacks; run once in-process and once with two worker processes;
- "desk": the acceptance tests' desk run (the `desk_run` fixture), on
  small nets whose folds all share one stack;
- "pbmh": the traces and incumbents of `minimize` for all 13 optimizers
  on a 10-D Rastrigin, at budgets that end on and within a generation
  (CMA-ES's truncated one included), each run cold and warm-started.

The digests depend on the floating-point library underneath, so the
file records the NumPy version and BLAS they were taken with, and a
mismatch names both. A change that moves numbers on purpose updates the
digests, says so, and re-passes acceptance criteria 8b and 8c.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from evomlp import objective
from evomlp.cli import load_config, load_dataset, main
from evomlp.pbmh import ALGORITHM_NAMES, minimize

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json")
                    .read_text())

SMALL_CONFIG = {
    "algorithms": ["DE", "PSO"],
    "stage_budget": 4,
    "population_size": 4,
    "repeats": 1,
    "missing_rates": [0.0, 0.3],
    "eval": {"folds": 10, "epochs": 4, "batch_size": 16, "seed": 3},
    "master_seed": 5,
    "space": {"neuron_min": 8, "neuron_max": 32, "max_layers": 2},
    "dataset": {"type": "synthetic", "n": 403, "p": 12, "classes": 3,
                "separation": 2.0, "seed": 11},
}
# STACK_PARAMS for the small config: every net of its space has more
# than SMALL_STACK_PARAMS / 7 parameters, so the group of 7 folds with
# one training size always splits, into stacks of 1 to 6 folds
SMALL_STACK_PARAMS = 900


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


# (population, budget) pairs of the "pbmh" digest; each runs with seed =
# budget, once cold and once from PBMH_WARM_START
PBMH_RUNS = ((4, 4), (4, 9), (6, 10), (10, 13), (10, 64), (10, 301))
PBMH_WARM_START = np.linspace(-4.5, 4.5, 10)


def _rastrigin(x):
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))


def _file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_golden(name, digest):
    if digest == GOLDEN["digests"][name]:
        return
    here = {"numpy": np.__version__, "blas": _blas()}
    recorded = {key: GOLDEN[key] for key in here}
    environment = (
        "" if here == recorded else
        f"; the golden digests were taken with NumPy {recorded['numpy']} "
        f"and BLAS {recorded['blas']}, this run has NumPy "
        f"{here['numpy']} and BLAS {here['blas']}")
    pytest.fail(f"{name}: sha256 {digest}, golden "
                f"{GOLDEN['digests'][name]}{environment}")


def _small_config_digest(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(objective, "STACK_PARAMS", SMALL_STACK_PARAMS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    cfg, dataset_spec = load_config(config)
    split = objective.split_folds(load_dataset(dataset_spec), cfg.eval)
    assert sorted(len(group) for group in split.groups) == [3, 7]
    assert np.all(split.n_train % cfg.eval.batch_size)
    smallest = (split.p + 1) * cfg.space.neuron_min \
        + (cfg.space.neuron_min + 1) * 3
    assert SMALL_STACK_PARAMS // smallest < 7

    out = tmp_path / "bench"
    assert main(["benchmark", "--config", str(config), "--out", str(out),
                 "--deterministic", "--quiet", "--jobs", str(jobs)]) == 0
    return _file_digest(out / "results.jsonl")


def test_small_config_matches_golden(tmp_path, monkeypatch):
    _assert_golden("small", _small_config_digest(tmp_path, monkeypatch, 1))


def test_small_config_matches_golden_with_two_jobs(tmp_path, monkeypatch):
    # each rate's split is made once, before the two worker processes
    # fork with the lowered STACK_PARAMS, and reaches each worker once,
    # through the pool's initializer
    _assert_golden("small", _small_config_digest(tmp_path, monkeypatch, 2))


def test_desk_run_matches_golden(desk_run):
    _assert_golden("desk", _file_digest(desk_run["bench"] / "results.jsonl"))


def test_optimizers_match_golden():
    lower, upper = np.full(10, -5.0), np.full(10, 5.0)
    digest = hashlib.sha256()
    for algorithm in ALGORITHM_NAMES:
        for population, budget in PBMH_RUNS:
            for x0 in (None, PBMH_WARM_START):
                result = minimize(algorithm, _rastrigin, lower, upper,
                                  population, budget, seed=budget, x0=x0)
                digest.update(result.trace.tobytes())
                digest.update(result.x.tobytes())
    _assert_golden("pbmh", digest.hexdigest())
