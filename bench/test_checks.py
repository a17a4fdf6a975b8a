"""Each check must pass on a right output and fail on a corrupted one.

Run from the repository root: python3 -m pytest bench
"""

import copy
import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
from evomlp import cli, data, solvers  # noqa: E402
from workloads import TRACE_SCHEMA, make_trace, trace_csv  # noqa: E402

CONFIG = {"algorithms": ["DE", "PSO"], "missing_rates": [0.0, 0.4],
          "repeats": 1, "max_layers": 2, "stage_budget": 3,
          "space": {"neuron_min": 8, "neuron_max": 64, "max_layers": 2}}
CONSUMED = {sid: set(solvers.consumed_parameters(sid))
            for sid in solvers.SOLVER_NAMES}


def _record(alg, rate, fitness):
    return {
        "algorithm": alg, "missing_rate": rate, "repeat": 0,
        "fitness": fitness, "accuracy": 100.0 - fitness,
        "f_measure": 95.0 - fitness,
        "architecture": {
            "hidden_layer_sizes": [20, 9], "solver_id": 9,
            "solver_name": "Rprop", "learning_rate": 0.1,
            "active_params": {"learning_rate": 0.1}},
        "genome": {}, "stage_traces": [[fitness + 3, fitness + 1, 50.0],
                                       [fitness, fitness + 2, 60.0]],
        "n_evaluations": 6, "seed": 1, "wall_time": 1.5}


@pytest.fixture
def records():
    return [_record("DE", 0.0, 2.0), _record("PSO", 0.0, 3.0),
            _record("DE", 0.4, 20.0), _record("PSO", 0.4, 25.0)]


def test_right_records_pass(records):
    assert checks.check_records(records, CONFIG, CONSUMED) == []
    assert checks.check_accuracy(records, floor=90.0) == []


@pytest.mark.parametrize("corrupt, expect", [
    (lambda r: r.update(n_evaluations=5), "evaluations"),
    (lambda r: r["stage_traces"][0].pop(), "stage traces"),
    (lambda r: r.update(fitness=r["fitness"] + 0.5), "minimum"),
    (lambda r: r.update(accuracy=r["accuracy"] - 1e-9), "accuracy"),
    (lambda r: r["architecture"].update(hidden_layer_sizes=[20, 9, 9]),
     "hidden layers"),
    (lambda r: r["architecture"].update(hidden_layer_sizes=[20, 65]),
     "layer sizes"),
    (lambda r: r["architecture"].update(hidden_layer_sizes=[20.0, 9]),
     "layer sizes"),
    (lambda r: r["architecture"]["active_params"].update(momentum=0.5),
     "active_params"),
    (lambda r: r["architecture"].update(solver_id=11), "unknown solver"),
    (lambda r: r.pop("wall_time"), "wall_time"),
    (lambda r: r.update(error="CapacityError: full"), "failed"),
])
def test_corrupted_record_fails(records, corrupt, expect):
    corrupt(records[1])
    problems = checks.check_records(records, CONFIG, CONSUMED)
    assert problems and expect in " ".join(problems)


def test_missing_cell_fails(records):
    problems = checks.check_records(records[:-1], CONFIG, CONSUMED)
    assert problems and "grid cells" in problems[0]


def test_accuracy_floor_and_rate_order(records):
    assert "floor" in checks.check_accuracy(records, floor=98.5)[0]
    flipped = copy.deepcopy(records)
    for r in flipped[2:]:
        r["accuracy"] = 99.0
    assert "not below rate 0" in checks.check_accuracy(flipped, 90.0)[0]


def test_digest_ignores_wall_time_only(records):
    before = checks.record_digest(records)
    records[0]["wall_time"] = 9.0
    assert checks.record_digest(records) == before
    records[0]["stage_traces"][1][2] = 61.0
    assert checks.record_digest(records) != before


def test_ncm_accuracy_separates_far_blobs():
    ds = data.synthesize(300, 4, 3, separation=20.0, seed=1)
    assert checks.ncm_accuracy(ds.X, ds.y, folds=3) == 100.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_trace_truth_matches_ingest(seed):
    rows, truth = make_trace(seed, 300)
    ds = data.ingest(io.StringIO(trace_csv(rows)),
                     data.DataSchema.from_dict(TRACE_SCHEMA))
    histogram = {name: int(np.count_nonzero(ds.y == i))
                 for i, name in enumerate(data.CLASS_NAMES)}
    assert histogram == truth


def test_prepare_check(tmp_path):
    rows, truth = make_trace(4, 200)
    (tmp_path / "trace.csv").write_text(trace_csv(rows))
    (tmp_path / "schema.json").write_text(json.dumps(TRACE_SCHEMA))
    prep = tmp_path / "prep"
    assert cli.main(["prepare", "--input", str(tmp_path / "trace.csv"),
                     "--schema", str(tmp_path / "schema.json"),
                     "--output", str(prep)]) == 0
    assert checks.check_prepare(prep, truth) == []
    wrong = dict(truth, safe=truth["safe"] + 1)
    assert len(checks.check_prepare(prep, wrong)) == 2
    hist = json.loads((prep / "label_histogram.json").read_text())
    hist["critical"] += 1
    (prep / "label_histogram.json").write_text(json.dumps(hist))
    assert "histogram" in checks.check_prepare(prep, truth)[0]


@pytest.fixture
def stats_run(tmp_path):
    """stats output of a 4-algorithm, 3-rate, 3-repeat results file, so
    Friedman has ties to handle and Wilcoxon has 9 pairs."""
    rng = np.random.default_rng(5)
    records = []
    for rate in (0.0, 0.2, 0.4):
        for a, alg in enumerate(("GA", "DE", "PSO", "JADE")):
            for rep in range(3):
                fit = float(np.round(10 + 30 * rate + 3 * a
                                     + rng.normal(0, 2), 1))
                r = _record(alg, rate, fit)
                r["repeat"] = rep
                records.append(r)
    for i in range(3):  # PSO and JADE tie at rate 0.4
        records[30 + i]["accuracy"] = records[33 + i]["accuracy"]
    results = tmp_path / "results.jsonl"
    results.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "stats"
    assert cli.main(["stats", "--results", str(results),
                     "--out", str(out)]) == 0
    return records, out


def test_stats_oracle_passes(stats_run):
    records, out = stats_run
    assert checks.check_stats(records, out) == []


def test_stats_oracle_catches_friedman(stats_run):
    records, out = stats_run
    path = out / "friedman.json"
    fried = json.loads(path.read_text())
    fried["chi2"] += 1e-6
    fried["average_ranks"][0] += 0.5
    path.write_text(json.dumps(fried))
    problems = checks.check_stats(records, out)
    assert any("chi2" in p for p in problems)
    assert any("ranks" in p for p in problems)


def test_stats_oracle_catches_wilcoxon_verdict(stats_run):
    records, out = stats_run
    path = out / "wilcoxon_matrix.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "=" if cells[-1] != "=" else "+"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_stats(records, out)
    assert problems and "Wilcoxon verdict GA vs JADE" in problems[0]


def test_wilcoxon_oracle_matches_exact_enumeration():
    a = np.array([80.0, 81, 79, 85, 90, 88, 70, 75])
    b = np.array([78.0, 81, 77, 80, 91, 80, 68, 73])
    p, verdict = checks.expected_wilcoxon(a, b, alpha=0.05)
    # differences 2,0,2,5,-1,8,2,2: ranks with ties, W- = 1, n = 7
    assert p == pytest.approx(2 * 2 / 2 ** 7)
    assert verdict == "superior"
