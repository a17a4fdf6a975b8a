"""Acceptance gate: one test per criterion, at the stated tolerances.

Criterion 1 is the scope statement (exact reproduction of the published
benchmark numbers is out of reach: the data subset, seeds and per-run
scores are unpublished, and the method is stochastic), so acceptance is
the property checks and desk-scale experiments below. Run with -v for
one pass/fail line per criterion; prints give timing detail under -s.
"""

import csv
import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from evomlp.cli import main as cli_main
from evomlp.data import (LabeledDataset, StateRow, compute_ecpm,
                         inject_missing, label_ecpm)
from evomlp.genome import mid_range_hyper, selective_exclusion
from evomlp.network import forward, forward_batch, init_network
from evomlp.objective import classification_error
from evomlp.pbmh import ALGORITHM_NAMES, minimize
from evomlp.solvers import SOLVER_NAMES, SolverSpec, make_solver
from evomlp.stats import chi2_sf, friedman, wilcoxon_signed_rank

from test_network import _random_case, finite_difference_worst_error
from test_stats import _brute_force_p


def test_criterion_2_gradient_oracle():
    started = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        net, X, M, y = _random_case(rng, max_hidden_layers=3,
                                    max_neurons=16, jitter_biases=True)
        worst = max(worst,
                    finite_difference_worst_error(net, X, M, y, step=1e-5))
    elapsed = time.time() - started
    assert worst <= 1e-4, worst
    assert elapsed < 60.0, elapsed
    print(f"\nPASS criterion 2: gradient oracle, 100 nets, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_mask_semantics():
    rng = np.random.default_rng(3033)
    for trial in range(1000):
        p = int(rng.integers(2, 10))
        sizes = [int(rng.integers(1, 12))
                 for _ in range(int(rng.integers(1, 4)))]
        net = init_network(sizes, p, seed=int(rng.integers(1 << 31)))
        x = rng.normal(size=p)
        m = (rng.random(p) > 0.4).astype(float)
        baseline = forward(net, x, m)
        perturbed = np.where(m == 0, x + rng.normal(size=p) * 1e6, x)
        assert np.array_equal(forward(net, perturbed, m), baseline)
    # all-ones mask is bit-exactly the dense evaluation
    net = init_network([8, 5], 6, seed=1)
    X = np.random.default_rng(4).normal(size=(50, 6))
    assert np.array_equal(forward_batch(net, X, np.ones_like(X)),
                          forward_batch(net, X, None))
    print("\nPASS criterion 3: mask semantics, 1000 trials bit-identical")


def test_criterion_4_solver_suite():
    started = time.time()
    hyper = mid_range_hyper()
    for solver_id, name in SOLVER_NAMES.items():
        params = selective_exclusion(solver_id, hyper)
        solver = make_solver(SolverSpec(solver_id, params), [(1,)])
        w = np.array([1.0])
        best = 1.0
        for _ in range(500):
            solver.step([w], [2.0 * w])
            best = min(best, float(w[0] ** 2))
        assert best <= 0.01, (name, best)
    elapsed = time.time() - started
    assert elapsed < 10.0, elapsed
    print(f"\nPASS criterion 4: all 10 solvers cut f(w)=w^2 by >=99% "
          f"within 500 steps, {elapsed:.1f}s")


def test_criterion_5_metaheuristic_sanity():
    started = time.time()
    lo, hi = np.full(10, -5.0), np.full(10, 5.0)

    def sphere(x):
        return float(np.sum(np.asarray(x) ** 2))

    pop, budget = 10, 2000
    for algorithm in ALGORITHM_NAMES:
        for seed in range(10):
            result = minimize(algorithm, sphere, lo, hi, pop, budget,
                              seed=seed)
            assert len(result.trace) == budget, algorithm
            initial_best = float(np.min(result.trace[:pop]))
            assert result.fitness <= 0.1 * initial_best, \
                (algorithm, seed, result.fitness, initial_best)
            assert result.fitness == min(result.trace)
            incumbent = result.incumbent_trace()
            assert np.all(np.diff(incumbent) <= 0)
    elapsed = time.time() - started
    assert elapsed < 120.0, elapsed
    print(f"\nPASS criterion 5: 13 algorithms x 10 seeds on the sphere, "
          f"{elapsed:.1f}s")


def test_criterion_6_formula_spot_checks():
    def state(ts, level, battery_state="discharging"):
        return StateRow(timestamp=ts, battery_level=level,
                        battery_state=battery_state, features={})

    assert compute_ecpm(state(0, 80), state(60, 79)) == 1.0
    assert classification_error([0, 1, 2, 1], [0, 1, 2, 0]) == 25.0
    assert label_ecpm(0.3) == 0   # safe
    assert label_ecpm(1.0) == 1   # warning
    assert label_ecpm(2.0) == 2   # critical

    rng = np.random.default_rng(6)
    ds = LabeledDataset(X=rng.normal(size=(800, 23)),
                        y=rng.integers(0, 3, size=800),
                        feature_names=[f"f{i}" for i in range(23)])
    assert ds.X.size == 18400
    masked = inject_missing(ds, 0.05, seed=0)
    assert int(masked.M.size - masked.M.sum()) == 920
    print("\nPASS criterion 6: ECPM, error formula, thresholds, and the "
          "920/18400 mask count are exact")


def test_criterion_7_statistics_oracles():
    started = time.time()
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        n = int(rng.integers(5, 13))
        a = rng.normal(size=n).round(1)
        b = rng.normal(size=n).round(1)
        if np.count_nonzero(a - b) < 5:
            continue
        exact = wilcoxon_signed_rank(a, b).p_value
        brute = _brute_force_p(a - b)
        assert abs(exact - brute) <= 1e-12
        checked += 1

    assert friedman(np.ones((6, 4)))["chi2"] == 0.0
    ordered = friedman(np.array([[3.0, 2.0, 1.0]] * 4))
    assert ordered["chi2"] == pytest.approx(8.0)

    # decision rule at the df=12 critical value 21.03
    assert chi2_sf(61.48, 12) < 0.05
    assert chi2_sf(21.04, 12) < 0.05 < chi2_sf(21.02, 12)
    elapsed = time.time() - started
    assert elapsed < 30.0, elapsed
    print(f"\nPASS criterion 7: Wilcoxon enumeration oracle and Friedman "
          f"hand values, {elapsed:.1f}s")


DESK_CONFIG = {
    "algorithms": ["DE", "PSO", "CMA-ES"],
    "max_layers": 2,
    "stage_budget": 10,
    "population_size": 6,
    "repeats": 3,
    "missing_rates": [0.0, 0.4],
    "eval": {"folds": 3, "epochs": 60, "batch_size": 32, "seed": 0},
    "master_seed": 0,
    "space": {"neuron_min": 8, "neuron_max": 64, "max_layers": 2},
    "dataset": {"type": "synthetic", "n": 600, "p": 12, "classes": 3,
                "separation": 4.0, "seed": 7},
}


def _mean_accuracy(records, algorithm, rate):
    accs = [r["accuracy"] for r in records
            if r["algorithm"] == algorithm and r["missing_rate"] == rate]
    assert len(accs) == 3
    return float(np.mean(accs))


def test_criterion_8a_desk_scale_runtime(desk_run):
    assert len(desk_run["records"]) == 18
    assert all(not r.get("error") for r in desk_run["records"])
    assert desk_run["elapsed"] < 600.0, desk_run["elapsed"]
    print(f"\nPASS criterion 8a: desk benchmark completed in "
          f"{desk_run['elapsed']:.0f}s (< 600s)")


def test_criterion_8b_full_data_accuracy(desk_run):
    for algorithm in DESK_CONFIG["algorithms"]:
        mean = _mean_accuracy(desk_run["records"], algorithm, 0.0)
        assert mean >= 90.0, (algorithm, mean)
    print("\nPASS criterion 8b: rate-0 mean accuracy >= 90% "
          "for every algorithm")


def test_criterion_8c_masked_accuracy(desk_run):
    for algorithm in DESK_CONFIG["algorithms"]:
        clean = _mean_accuracy(desk_run["records"], algorithm, 0.0)
        masked = _mean_accuracy(desk_run["records"], algorithm, 0.4)
        assert masked >= 60.0, (algorithm, masked)
        assert masked < clean, (algorithm, masked, clean)
    print("\nPASS criterion 8c: rate-0.4 mean accuracy >= 60% and "
          "strictly below rate-0")


def test_criterion_8d_stats_outputs(desk_run):
    stats_dir = desk_run["stats"]
    fried = json.loads((stats_dir / "friedman.json").read_text())
    assert len(fried["average_ranks"]) == 3
    assert sum(fried["average_ranks"]) == pytest.approx(6.0)

    with open(stats_dir / "wilcoxon_matrix.csv") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    assert len(names) == 3
    cells = {}
    for row in rows[1:]:
        for name, symbol in zip(names, row[1:]):
            cells[(row[0], name)] = symbol
    mirror = {"+": "-", "-": "+", "=": "="}
    for i in names:
        for j in names:
            if i == j:
                assert cells[(i, j)] == ""
            else:
                assert cells[(i, j)] == mirror[cells[(j, i)]]

    with open(stats_dir / "stability.csv") as fh:
        stab_rows = list(csv.reader(fh))[1:]
    assert len(stab_rows) == 3
    assert all(float(v) >= 0.0 for _, v in stab_rows)

    svg = (desk_run["report"] / "accuracy_by_algorithm.svg").read_text()
    ET.fromstring(svg)
    print("\nPASS criterion 8d: Friedman ranks, antisymmetric 3x3 "
          "Wilcoxon matrix, and nonnegative stability emitted")


def test_criterion_9_byte_identical_determinism(tmp_path):
    config = tmp_path / "config.json"
    small = dict(DESK_CONFIG, repeats=1, algorithms=["DE", "PSO"],
                 eval={"folds": 3, "epochs": 8, "batch_size": 32,
                       "seed": 0})
    config.write_text(json.dumps(small))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["benchmark", "--config", str(config),
                         "--out", str(out), "--deterministic",
                         "--quiet"]) == 0
        outs.append((out / "results.jsonl").read_bytes())
    assert outs[0] == outs[1]
    print("\nPASS criterion 9: two deterministic benchmark runs are "
          "byte-identical")
