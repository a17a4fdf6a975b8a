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
- "desk_outputs": the rest of that run's deterministic output, its
  `manifest.json` (which echoes every algorithm's constants) and every
  file of its `stats/` and `report/` directories, in sorted order;
- "comparison_outputs": every file `stats` and `report` write for a
  hand-built results file out of grid order (see `_comparison_lines`),
  where the rules that pick, group and order the records disagree: the
  tables list the algorithms in `report.cells` order, and the chart
  every algorithm of the file, one with no clean record as `n/a`;
- "pbmh": the traces and incumbents of `minimize` for all 13 optimizers
  on a 10-D Rastrigin, at budgets that end on and within a generation
  (CMA-ES's truncated one included), each run cold and warm-started;
- "masked": the masked CLI path, `inject-missing --rate 0.2` on a fixed
  dataset CSV and then `search --deterministic --data masked.csv --mask
  mask.csv` on the small config; the digest covers `masked.csv`,
  `mask.csv` and `run.json`;
- "solvers": the parameters after every step of each of the 10 update
  rules, on a list of three tensors and on one (2, 50) stack, over a grid
  of hyperparameters with weight decay and momentum both 0 and > 0 and
  betas up to 1.0 (the clamp), under gradients that are all zero every
  few steps (Rprop's skip; RAdam's early steps are unrectified anyway).

The digests depend on the floating-point library underneath, so the
file records the NumPy version and BLAS they were taken with, and a
mismatch names both. A change that moves numbers on purpose updates the
digests, says so, and re-passes acceptance criteria 8b and 8c.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from evomlp import objective
from evomlp.cli import load_config, load_dataset, main
from evomlp.data import synthesize, write_dataset_csv
from evomlp.pbmh import ALGORITHM_NAMES, minimize
from evomlp.solvers import CONSUMED, SolverSpec, make_solver

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


# hyperparameter values of the "solvers" digest; each rule runs on every
# combination of the values of the genes it consumes
SOLVER_GRID = {"learning_rate": (0.05,), "weight_decay": (0.0, 0.03),
               "momentum": (0.0, 0.6), "rho": (0.9,), "lambda": (0.3,)}
SOLVER_BETAS = ((0.9, 0.999), (0.8, 1.0), (1.0, 0.8))
SOLVER_SHAPES = ([(3, 4), (4,), (7,)], [(2, 50)])
SOLVER_STEPS = 40
SOLVER_ZERO_EVERY = 8  # every 8th gradient is all zeros


def _solver_cases(solver_id):
    consumed = CONSUMED[solver_id]
    keys = sorted(consumed & SOLVER_GRID.keys())
    betas = SOLVER_BETAS if "beta1" in consumed else [()]
    for values in itertools.product(*(SOLVER_GRID[k] for k in keys)):
        for beta in betas:
            case = dict(zip(keys, values))
            case.update(zip(("beta1", "beta2"), beta))
            yield case


# the algorithms of the "comparison_outputs" results file; GA has error
# records only
COMPARISON_ALGORITHMS = ("PSO", "DE", "CMA-ES", "GA")
COMPARISON_RATES = (0.0, 0.2, 0.4)
COMPARISON_REPEATS = 4
COMPARISON_SEED = 256
COMPARISON_SOLVERS = ("SGD", "Adam", "RMSprop", "Rprop")


def _comparison_lines():
    """The records of a results file whose lines are out of grid order:

    - GA has error records only, and one is the first line;
    - a CMA-ES error record (rate 0.0, repeat 1) is the second line, so
      CMA-ES comes before PSO and DE among all records but after PSO
      among the clean ones, and its first clean record is at rate 0.4;
    - DE has no clean record at rate 0.2, so Friedman drops that block;
    - PSO has no repeat 2 at rate 0.0, and CMA-ES's repeat 1 there failed;
    - DE's repeats 3 and 1 at rate 0.4 tie on the cell's lowest fitness,
      repeat 3 on the earlier line.

    The other lines follow a seeded shuffle; scores and architectures
    are seeded draws at full float precision.
    """
    rng = np.random.default_rng(COMPARISON_SEED)
    records = {}
    for alg in COMPARISON_ALGORITHMS:
        for rate in COMPARISON_RATES:
            for rep in range(COMPARISON_REPEATS):
                if (alg, rate, rep) == ("PSO", 0.0, 2):
                    continue
                record = {
                    "algorithm": alg, "missing_rate": rate, "repeat": rep,
                    "fitness": float(rng.uniform(5, 50)),
                    "accuracy": float(rng.uniform(50, 95)),
                    "f_measure": float(rng.uniform(40, 95)),
                    "architecture": {
                        "hidden_layer_sizes":
                            rng.integers(1, 64, rng.integers(1, 3)).tolist(),
                        "learning_rate": float(rng.uniform(1e-3, 0.1)),
                        "solver_name": str(rng.choice(COMPARISON_SOLVERS))},
                    "genome": {}, "stage_traces": [], "n_evaluations": 20,
                    "seed": int(rng.integers(2 ** 31))}
                if alg == "GA" or (alg, rate) == ("DE", 0.2) \
                        or (alg, rate, rep) == ("CMA-ES", 0.0, 1):
                    record.update(fitness=None, accuracy=None,
                                  f_measure=None, architecture={},
                                  n_evaluations=0,
                                  error="RuntimeError: failed")
                records[(alg, rate, rep)] = record
    tie = min(records[("DE", 0.4, rep)]["fitness"]
              for rep in range(COMPARISON_REPEATS)) - 1.0
    for rep in (1, 3):
        records[("DE", 0.4, rep)]["fitness"] = tie
    pinned = [records.pop(("GA", 0.4, 0)), records.pop(("CMA-ES", 0.0, 1))]
    rest = list(records.values())
    return pinned + [rest[i] for i in rng.permutation(len(rest))]


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
    # 403 rows over 10 folds: folds 0-2 test on 41 rows, folds 3-9 on 40
    assert split.n_test.tolist() == [41] * 3 + [40] * 7
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


def _update_with_files(digest, directory):
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(directory).as_posix().encode())
            digest.update(path.read_bytes())


def test_desk_outputs_match_golden(desk_run):
    digest = hashlib.sha256()
    digest.update((desk_run["bench"] / "manifest.json").read_bytes())
    for directory in (desk_run["stats"], desk_run["report"]):
        _update_with_files(digest, directory)
    _assert_golden("desk_outputs", digest.hexdigest())


def test_comparison_outputs_match_golden(tmp_path):
    lines = _comparison_lines()
    key = [(r["algorithm"], r["missing_rate"], r["repeat"]) for r in lines]
    clean = [k for k, r in zip(key, lines) if not r.get("error")]
    # the shape _comparison_lines promises, in which every ordering rule
    # of `stats` and `report` gives a different order
    assert len(lines) == 47 and key[:2] == [("GA", 0.4, 0), ("CMA-ES", 0.0, 1)]
    assert list(dict.fromkeys(a for a, _, _ in clean)) == ["PSO", "CMA-ES",
                                                           "DE"]
    assert list(dict.fromkeys(rate for _, rate, _ in clean)) == [0.2, 0.4,
                                                                 0.0]
    assert next(rate for a, rate, _ in clean if a == "CMA-ES") == 0.4
    assert not any(a == "DE" and rate == 0.2 for a, rate, _ in clean)
    de = [(rep, r["fitness"]) for (a, rate, rep), r in zip(key, lines)
          if (a, rate) == ("DE", 0.4)]
    assert [rep for rep, f in de if f == min(f for _, f in de)] == [3, 1]

    results = tmp_path / "results.jsonl"
    results.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                               for r in lines))
    digest = hashlib.sha256()
    for command in ("stats", "report"):
        out = tmp_path / command
        assert main([command, "--results", str(results),
                     "--out", str(out)]) == 0
        _update_with_files(digest, out)
    _assert_golden("comparison_outputs", digest.hexdigest())


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


def test_masked_search_matches_golden(tmp_path):
    dataset = tmp_path / "data.csv"
    write_dataset_csv(synthesize(n=120, p=6, n_classes=3, separation=2.0,
                                 seed=7), dataset)
    masked = tmp_path / "masked"
    assert main(["inject-missing", "--input", str(dataset), "--rate", "0.2",
                 "--seed", "9", "--out", str(masked)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        dict(SMALL_CONFIG, eval=dict(SMALL_CONFIG["eval"], folds=3))))
    out = tmp_path / "search"
    assert main(["search", "--algorithm", "DE", "--config", str(config),
                 "--data", str(masked / "masked.csv"),
                 "--mask", str(masked / "mask.csv"), "--out", str(out),
                 "--deterministic"]) == 0
    digest = hashlib.sha256()
    for path in (masked / "masked.csv", masked / "mask.csv",
                 out / "run.json"):
        digest.update(path.read_bytes())
    _assert_golden("masked", digest.hexdigest())


def test_solvers_match_golden():
    digest = hashlib.sha256()
    for solver_id in CONSUMED:
        for params in _solver_cases(solver_id):
            assert set(params) == CONSUMED[solver_id]
            for shapes in SOLVER_SHAPES:
                solver = make_solver(SolverSpec(solver_id, params), shapes)
                rng = np.random.default_rng(solver_id)
                ws = [rng.standard_normal(s) for s in shapes]
                for t in range(1, SOLVER_STEPS + 1):
                    grads = [0.5 * w + rng.standard_normal(w.shape)
                             for w in ws]
                    if t % SOLVER_ZERO_EVERY == 0:
                        grads = [np.zeros_like(w) for w in ws]
                    solver.step(ws, grads)
                    assert all(np.isfinite(w).all() for w in ws)
                    for w in ws:
                        digest.update(w.tobytes())
    _assert_golden("solvers", digest.hexdigest())
