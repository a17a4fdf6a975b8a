import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from evomlp.cli import load_config, main
from evomlp.data import read_dataset_csv
from evomlp.driver import SearchConfig, config_manifest

RAW_TRACE = """timestamp,battery_state,battery_level,cpu,wifi
0,discharging,80,0.5,on
60,discharging,79,0.6,on
120,discharging,78.9,0.4,on
180,charging,79,0.4,on
240,discharging,79,0.4,on
300,discharging,76,0.3,on
360,discharging,75.9,0.3,on
"""

SCHEMA = {
    "features": {"cpu": "numeric", "wifi": {"ordinal": ["off", "on"]}},
    "settings": ["wifi"],
}


@pytest.fixture
def trace_files(tmp_path):
    raw = tmp_path / "trace.csv"
    raw.write_text(RAW_TRACE)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA))
    return raw, schema


def tiny_config(tmp_path, **overrides):
    cfg = {
        "algorithms": ["DE", "PSO"],
        "max_layers": 2,
        "stage_budget": 8,
        "population_size": 4,
        "repeats": 2,
        "missing_rates": [0.0, 0.4],
        "eval": {"folds": 2, "epochs": 2, "batch_size": 16, "seed": 0},
        "master_seed": 7,
        "space": {"neuron_min": 1, "neuron_max": 8, "max_layers": 2},
        "dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 3,
                    "separation": 3.0, "seed": 5},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_prepare_writes_dataset_and_histogram(tmp_path, trace_files,
                                              capsys):
    raw, schema = trace_files
    out = tmp_path / "prepared"
    assert main(["prepare", "--input", str(raw), "--schema", str(schema),
                 "--output", str(out)]) == 0
    ds = read_dataset_csv(out / "prepared.csv")
    # pairs: (0,60)=1.0/min, (60,120)=0.1/min; charging row kills the
    # next pair, then (300,360)=0.1/min
    assert ds.n == 3
    histogram = json.loads((out / "label_histogram.json").read_text())
    assert set(histogram) == {"safe", "warning", "critical"}
    assert sum(histogram.values()) == 3
    assert histogram["safe"] == 2 and histogram["warning"] == 1


def test_prepare_missing_column_exits_2(tmp_path, trace_files, capsys):
    _, schema = trace_files
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,battery_state,cpu,wifi\n")
    code = main(["prepare", "--input", str(bad), "--schema", str(schema),
                 "--output", str(tmp_path / "o")])
    assert code == 2
    assert "battery_level" in capsys.readouterr().err


def test_prepare_charging_only_warns_exit_0(tmp_path, trace_files,
                                            capsys):
    _, schema = trace_files
    charging = tmp_path / "charging.csv"
    charging.write_text("timestamp,battery_state,battery_level,cpu,wifi\n"
                        "0,charging,80,0.5,on\n60,charging,82,0.5,on\n")
    out = tmp_path / "out"
    assert main(["prepare", "--input", str(charging), "--schema",
                 str(schema), "--output", str(out)]) == 0
    assert "warning" in capsys.readouterr().err
    assert read_dataset_csv(out / "prepared.csv").n == 0


def test_inject_missing_outputs(tmp_path, trace_files):
    raw, schema = trace_files
    prep = tmp_path / "prep"
    main(["prepare", "--input", str(raw), "--schema", str(schema),
          "--output", str(prep)])
    out = tmp_path / "masked"
    assert main(["inject-missing", "--input", str(prep / "prepared.csv"),
                 "--rate", "0.5", "--seed", "3", "--out", str(out)]) == 0
    mask = np.loadtxt(out / "mask.csv", delimiter=",", ndmin=2)
    ds = read_dataset_csv(out / "masked.csv")
    assert mask.shape == ds.X.shape
    assert int(mask.size - mask.sum()) == int(0.5 * mask.size)
    assert np.all(ds.X[mask == 0] == 0)


def test_search_writes_run_json(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--algorithm", "de", "--config", str(cfg),
                 "--out", str(out), "--deterministic"]) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["algorithm"] == "DE"
    assert record["n_evaluations"] == 16


def test_benchmark_grid_and_exit_codes(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "bench"
    code = main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--deterministic", "--quiet"])
    assert code == 0
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 8  # 2 algorithms x 2 rates x 2 repeats
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["records"] == 8
    assert manifest["failures"] == []
    assert "created" not in manifest


def test_benchmark_unknown_algorithm_exits_2(tmp_path, capsys):
    cfg = tiny_config(tmp_path, algorithms=["DE", "frobnicate"])
    code = main(["benchmark", "--config", str(cfg),
                 "--out", str(tmp_path / "b"), "--quiet"])
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tiny_config(tmp_path, typo_key=1)
    code = main(["benchmark", "--config", str(cfg),
                 "--out", str(tmp_path / "b"), "--quiet"])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_max_layers_beyond_space_exits_2(tmp_path, capsys):
    cfg = tiny_config(tmp_path, max_layers=3, space={"max_layers": 2})
    out = tmp_path / "b"
    code = main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--quiet"])
    assert code == 2
    assert "max_layers 3 exceeds space.max_layers 2" in capsys.readouterr().err
    assert not (out / "results.jsonl").exists()


@pytest.mark.parametrize("overrides", [
    {"population_size": 3},
    {"stage_budget": 3},
    {"space": {"neuron_min": 9, "neuron_max": 8, "max_layers": 2}},
    {"eval": {"folds": 10, "epochs": 2, "batch_size": 16, "seed": 0},
     "dataset": {"type": "synthetic", "n": 5, "p": 4, "classes": 3,
                 "separation": 3.0, "seed": 5}},
    {"eval": {"folds": "3"}},
    {"eval": {"folds": 2, "epochs": 2, "batch_size": 0, "seed": 0}},
    {"repeats": "2"},
    {"missing_rates": 5},
    {"missing_rates": ["0.2"]},
    {"missing_rates": [False]},
    {"dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 5}},
    {"dataset": {"type": "synthetic", "n": "600", "p": 4, "classes": 3}},
    {"dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 3.5}},
    {"dataset": {"type": "csv"}},
    {"dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 3,
                 "mask": "mask.csv"}},
    {"eval": {"folds": 2, "epochs": 2.5, "batch_size": 16, "seed": 0}},
    {"eval": {"folds": 2.0, "epochs": 2, "batch_size": 16, "seed": 0}},
    {"eval": {"folds": 2, "epochs": 2, "batch_size": 16.0, "seed": 0}},
    {"eval": {"folds": 2, "epochs": 2, "batch_size": 16, "seed": 0.5}},
    {"stage_budget": 8.0},
    {"population_size": 4.0},
    {"repeats": True},
    {"master_seed": 7.5},
    {"max_layers": 2.0},
    {"space": {"neuron_min": 1, "neuron_max": 8.5, "max_layers": 2}},
    {"algorithms": []},
    {"missing_rates": []},
    {"algorithms": ["DE", "de"]},
    {"algorithms": ["CMA-ES", "PSO", "cmaes"]},
    {"missing_rates": [0.0, 0.0]},
    {"missing_rates": [0.4, 0, 0.4]},
    {"flags": ["--jobs", "0"]},
    {"flags": ["--jobs", "-1"]},
], ids=["population-3", "budget-below-population", "neuron-min-above-max",
        "fewer-rows-than-folds", "folds-string", "batch-size-0",
        "repeats-string", "missing-rates-scalar", "missing-rates-string",
        "missing-rates-bool", "classes-beyond-labels", "n-string",
        "classes-float", "csv-without-path", "mask-key", "epochs-float",
        "folds-float", "batch-size-float", "eval-seed-float",
        "stage-budget-float", "population-float", "repeats-bool",
        "master-seed-float", "max-layers-float", "neuron-max-float",
        "algorithms-empty", "missing-rates-empty", "algorithms-duplicate",
        "algorithms-duplicate-spelling", "missing-rates-duplicate",
        "missing-rates-duplicate-int", "jobs-0", "jobs-negative"])
def test_bad_config_exits_2_before_work(tmp_path, capsys, overrides):
    overrides = dict(overrides)
    flags = overrides.pop("flags", [])  # command-line flags, not config
    cfg = tiny_config(tmp_path, **overrides)
    out = tmp_path / "b"
    code = main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--quiet", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "results.jsonl").exists()


def test_manifest_config_loads_back_equal(tmp_path):
    loaded, _ = load_config(tiny_config(tmp_path))
    for cfg in (loaded, SearchConfig()):
        path = tmp_path / "manifest_config.json"
        path.write_text(json.dumps(config_manifest(cfg)["config"]))
        assert load_config(path) == (cfg, None)


def test_top_level_max_layers_sets_stage_count(tmp_path):
    cfg, _ = load_config(tiny_config(tmp_path, max_layers=10, space={}))
    assert cfg.space.max_layers == 10  # fills the space's cap, default 8
    path = tiny_config(tmp_path, max_layers=1, algorithms=["DE"], repeats=1,
                       space={"neuron_min": 1, "neuron_max": 8,
                              "max_layers": 3})
    out = tmp_path / "b"
    assert main(["benchmark", "--config", str(path), "--out", str(out),
                 "--deterministic", "--quiet"]) == 0
    records = [json.loads(line) for line
               in (out / "results.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert len(record["stage_traces"]) == 1
        assert record["n_evaluations"] == 8


def test_benchmark_deterministic_byte_identical(tmp_path):
    cfg = tiny_config(tmp_path, repeats=1, algorithms=["DE"])
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out in (out1, out2):
        assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--deterministic", "--quiet"]) == 0
    assert (out1 / "results.jsonl").read_bytes() \
        == (out2 / "results.jsonl").read_bytes()
    assert (out1 / "manifest.json").read_bytes() \
        == (out2 / "manifest.json").read_bytes()


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    cfg = tiny_config(tmp_path, algorithms=["DE", "PSO", "CMA-ES"])
    out = tmp_path / "results"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--deterministic", "--quiet"]) == 0
    # 3 algorithms x 2 rates x 2 repeats
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 12
    return out


def test_stats_outputs(bench_dir, tmp_path):
    out = tmp_path / "stats"
    assert main(["stats", "--results", str(bench_dir / "results.jsonl"),
                 "--alpha", "0.05", "--out", str(out)]) == 0
    fried = json.loads((out / "friedman.json").read_text())
    assert fried["alpha"] == 0.05
    assert len(fried["average_ranks"]) == 3
    with open(out / "wilcoxon_matrix.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + 3 algorithms
    symbols = [c for row in rows[1:] for c in row[2:] if c]
    assert set(symbols) <= {"+", "-", "="}
    with open(out / "win_tie_loss.csv") as fh:
        wtl = list(csv.reader(fh))[1:]
    assert all(int(w) + int(t) + int(l) == 2 for _, w, t, l in wtl)
    with open(out / "stability.csv") as fh:
        stab = list(csv.reader(fh))[1:]
    assert len(stab) == 3
    assert all(float(v) >= 0 for _, v in stab)
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].split(",")[2:6] == [
        "accuracy_mean", "accuracy_std", "f_measure_mean",
        "f_measure_std"]


def test_stats_single_algorithm_exits_2(bench_dir, tmp_path, capsys):
    only_de = tmp_path / "only_de.jsonl"
    with open(bench_dir / "results.jsonl") as fh:
        lines = [l for l in fh if json.loads(l)["algorithm"] == "DE"]
    only_de.write_text("".join(lines))
    assert main(["stats", "--results", str(only_de),
                 "--out", str(tmp_path / "s")]) == 2


def test_report_outputs(bench_dir, tmp_path):
    out = tmp_path / "report"
    assert main(["report", "--results", str(bench_dir / "results.jsonl"),
                 "--out", str(out)]) == 0
    table = (out / "architectures_rate_0.csv").read_text().splitlines()
    assert table[0] == "algorithm,structure,learning_rate,solver"
    assert len(table) == 4  # header + 3 algorithms
    svg = (out / "accuracy_by_algorithm.svg").read_text()
    root = ET.fromstring(svg)  # must be valid XML
    bars = [el for el in root.iter()
            if el.tag.endswith("rect") and el.get("class") == "bar"]
    assert len(bars) == 3


def test_report_empty_results(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "report"
    assert main(["report", "--results", str(empty),
                 "--out", str(out)]) == 0
    assert (out / "architectures.csv").read_text().startswith("algorithm")
    ET.fromstring((out / "accuracy_by_algorithm.svg").read_text())


def test_missing_results_file_exits_2(tmp_path):
    assert main(["stats", "--results", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "s")]) == 2


def test_stats_and_report_idempotent_bytes(bench_dir, tmp_path):
    results = str(bench_dir / "results.jsonl")
    dirs = []
    for name in ("a", "b"):
        stats_out = tmp_path / f"stats_{name}"
        report_out = tmp_path / f"report_{name}"
        assert main(["stats", "--results", results,
                     "--out", str(stats_out)]) == 0
        assert main(["report", "--results", results,
                     "--out", str(report_out)]) == 0
        dirs.append((stats_out, report_out))
    for fname in ("summary.csv", "friedman.json", "wilcoxon_matrix.csv",
                  "win_tie_loss.csv", "stability.csv"):
        assert (dirs[0][0] / fname).read_bytes() \
            == (dirs[1][0] / fname).read_bytes(), fname
    for fname in ("architectures_rate_0.csv",
                  "accuracy_by_algorithm.svg"):
        assert (dirs[0][1] / fname).read_bytes() \
            == (dirs[1][1] / fname).read_bytes(), fname
