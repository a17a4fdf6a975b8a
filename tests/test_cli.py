import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

from evomlp.cli import CsvData, SyntheticData, load_config, main
from evomlp.data import (DataSchema, inject_missing, read_dataset_csv,
                         synthesize, write_dataset_csv)
from evomlp.driver import RunRecord, SearchConfig, config_manifest
from evomlp.genome import SearchSpace, build
from evomlp.objective import EvalConfig

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


@pytest.mark.parametrize("schema, message", [
    ([SCHEMA], "schema must be a JSON object"),
    ({"settings": ["wifi"]},
     "missing 1 required positional argument: 'features'"),
    ({"features": [["cpu", "numeric"]]}, "features must be a non-empty"),
    ({"features": {}}, "features must be a non-empty object"),
    ({**SCHEMA, "settings": "cpu"}, "settings must be a list of distinct"),
    ({"features": {"cpu": "numeric", "wifi": {"ordinal": "onoff"}}},
     "'wifi' categories must be a list of distinct strings"),
    ({"features": {"wifi": {"onehot": ["on", "on", "off"]}}},
     "'wifi' categories must be a list of distinct strings"),
    ({"features": SCHEMA["features"], "setting": ["wifi"]},
     "unknown schema keys: setting"),
], ids=["list", "no-features", "features-list", "features-empty",
        "settings-string", "categories-string", "categories-repeated",
        "misspelled-key"])
def test_prepare_bad_schema_exits_2(tmp_path, trace_files, capsys, schema,
                                    message):
    raw, _ = trace_files
    bad = tmp_path / "bad_schema.json"
    bad.write_text(json.dumps(schema))
    out = tmp_path / "o"
    code = main(["prepare", "--input", str(raw), "--schema", str(bad),
                 "--output", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inject-missing", "benchmark"])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "inject-missing":
        prepared = tmp_path / "prepared.csv"
        write_dataset_csv(synthesize(30, 3, 3, 3.0, seed=0), prepared)
        argv = ["--input", str(prepared), "--rate", "0.2", "--seed", "-1"]
    else:  # the config's synthetic dataset
        argv = ["--config", str(tiny_config(
            tmp_path, dataset={"type": "synthetic", "n": 60, "seed": -1}))]
    assert main([command, *argv, "--out", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark", "search",
                                     "inject-missing"])
def test_dataset_without_a_feature_column_exits_2(tmp_path, capsys,
                                                   command):
    labels = tmp_path / "labels.csv"
    labels.write_text("label\n" + "safe\nwarning\ncritical\n" * 20)
    argv = {
        "benchmark": ["--config", str(tiny_config(
            tmp_path, dataset={"type": "csv", "path": "labels.csv"}))],
        "search": ["--algorithm", "DE", "--data", str(labels)],
        "inject-missing": ["--input", str(labels), "--rate", "0.2"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 2
    assert "at least one column, got shape (60, 0)" in capsys.readouterr().err
    assert not out.exists()


def test_inject_missing_outputs(tmp_path, trace_files, capsys):
    raw, schema = trace_files
    prep = tmp_path / "prep"
    main(["prepare", "--input", str(raw), "--schema", str(schema),
          "--output", str(prep)])
    out = tmp_path / "masked"
    assert main(["inject-missing", "--input", str(prep / "prepared.csv"),
                 "--rate", "0.5", "--seed", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["masked.csv"]
    ds = read_dataset_csv(out / "masked.csv")
    assert ds.X.shape == (3, 2)
    assert int(ds.M.size - ds.M.sum()) == int(0.5 * ds.M.size)
    assert np.all(ds.X[ds.M == 0] == 0)
    assert f"masked 3 of 6 entries -> {out / 'masked.csv'}" \
        in capsys.readouterr().out


def test_inject_missing_counts_only_the_entries_it_masks(tmp_path, capsys):
    # the input already misses 12 of its 60 entries; a rate of 0.25 masks
    # 15 more, drawn among the other 48
    prepared = tmp_path / "prepared.csv"
    write_dataset_csv(inject_missing(synthesize(20, 3, 3, 3.0, seed=0), 0.2,
                                     seed=1), prepared)
    out = tmp_path / "masked"
    assert main(["inject-missing", "--input", str(prepared), "--rate",
                 "0.25", "--out", str(out)]) == 0
    assert "masked 15 of 60 entries" in capsys.readouterr().out
    assert np.count_nonzero(read_dataset_csv(out / "masked.csv").M) == 33


@pytest.mark.parametrize("command", ["inject-missing", "benchmark"])
def test_rate_above_the_observed_share_exits_2(tmp_path, capsys, command):
    # 36 of the 60 rows x 4 features = 240 entries are missing
    write_dataset_csv(inject_missing(synthesize(60, 4, 3, 3.0, seed=5), 0.15,
                                     seed=1), tmp_path / "masked.csv")
    argv = {
        "inject-missing": ["--input", str(tmp_path / "masked.csv"),
                           "--rate", "0.9"],
        "benchmark": ["--config", str(tiny_config(
            tmp_path, missing_rates=[0.0, 0.9],
            dataset={"type": "csv", "path": "masked.csv"}))],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 2
    assert ("missing rate 0.9 masks 216 entries, but only 204 of 240 are "
            "observed") in capsys.readouterr().err
    assert not (out / "masked.csv").exists()
    assert not (out / "results.jsonl").exists()
    assert not out.exists()


@pytest.mark.parametrize("command", ["search", "inject-missing",
                                     "benchmark", "prepare"])
def test_repeated_feature_name_exits_2(tmp_path, capsys, command):
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("a,a,label\n" + "0,1,safe\n1,0,warning\n" * 20)
    raw = tmp_path / "trace.csv"
    raw.write_text(RAW_TRACE.replace("cpu,wifi", "cpu,wifi,wifi=on").replace(
        ",on\n", ",on,1\n"))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"features": {
        "wifi=on": "numeric", "cpu": "numeric",
        "wifi": {"onehot": ["off", "on"]}}}))
    config = str(tiny_config(
        tmp_path, dataset={"type": "csv", "path": "repeated.csv"}))
    argv = {
        "search": ["--algorithm", "DE", "--data", str(repeated),
                   "--config", config],
        "inject-missing": ["--input", str(repeated), "--rate", "0.2"],
        "benchmark": ["--config", config],
        "prepare": ["--input", str(raw), "--schema", str(schema)],
    }[command]
    out = tmp_path / "out"
    out_flag = "--output" if command == "prepare" else "--out"
    assert main([command, *argv, out_flag, str(out)]) == 2
    assert "feature names must be a list of distinct strings" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "", "a,b,label\n1.0,2.0,safe\n\n", "a,b,label\n1.0,safe\n"],
    ids=["empty", "blank-line", "short-row"])
def test_inject_missing_malformed_csv_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = tmp_path / "masked"
    assert main(["inject-missing", "--input", str(bad), "--rate", "0.5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("60,discharging", "line 3: 2 cells under a header of 5"),
    ("60,discharging,79,0.6,on,extra", "line 3: 6 cells under a header"),
    ("inf,discharging,79,0.6,on", "line 3: timestamp 'inf' is not a finite"),
    ("nan,discharging,79,0.6,on", "line 3: timestamp 'nan' is not a finite"),
], ids=["short-row", "long-row", "inf-timestamp", "nan-timestamp"])
def test_prepare_malformed_trace_row_exits_2(tmp_path, trace_files, capsys,
                                             row, message):
    _, schema = trace_files
    raw = tmp_path / "malformed.csv"
    raw.write_text(RAW_TRACE.replace("60,discharging,79,0.6,on", row))
    out = tmp_path / "prepared"
    assert main(["prepare", "--input", str(raw), "--schema", str(schema),
                 "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_prepare_non_finite_cell_exits_2(tmp_path, trace_files, capsys,
                                         cell):
    _, schema = trace_files
    raw = tmp_path / "non_finite.csv"
    raw.write_text(RAW_TRACE.replace("60,discharging,79,0.6",
                                     f"60,discharging,79,{cell}"))
    out = tmp_path / "prepared"
    assert main(["prepare", "--input", str(raw), "--schema", str(schema),
                 "--output", str(out)]) == 2
    assert "line 3: cpu" in capsys.readouterr().err
    assert not (out / "prepared.csv").exists()


MISSING_TRACE = """timestamp,battery_state,battery_level,cpu,screen,net,wifi
0,discharging,80,0.5,on,wifi,on
60,discharging,79,,dim,cell,on
120,discharging,78.9,0.4,,wifi,on
180,discharging,78,0.3,off,,on
240,discharging,77,0.2,on,none,on
300,discharging,76.9,,,,on
"""

MISSING_SCHEMA = {
    "features": {"cpu": "numeric",
                 "screen": {"ordinal": ["off", "dim", "on"]},
                 "net": {"onehot": ["none", "wifi", "cell"]},
                 "wifi": {"ordinal": ["off", "on"]}},
    "settings": ["wifi"],
}


@pytest.fixture
def prepared_with_missing_cells(tmp_path):
    raw = tmp_path / "missing.csv"
    raw.write_text(MISSING_TRACE)
    schema = tmp_path / "missing_schema.json"
    schema.write_text(json.dumps(MISSING_SCHEMA))
    out = tmp_path / "prepared"
    assert main(["prepare", "--input", str(raw), "--schema", str(schema),
                 "--output", str(out)]) == 0
    return out / "prepared.csv"


def test_prepare_reads_an_empty_cell_as_missing(prepared_with_missing_cells):
    ds = read_dataset_csv(prepared_with_missing_cells)
    assert ds.feature_names == ["cpu", "screen", "net=none", "net=wifi",
                                "net=cell", "wifi"]
    # an empty one-hot cell masks all three of its columns
    assert ds.M.tolist() == [[1, 1, 1, 1, 1, 1],
                             [0, 1, 1, 1, 1, 1],
                             [1, 0, 1, 1, 1, 1],
                             [1, 1, 0, 0, 0, 1],
                             [1, 1, 1, 1, 1, 1]]
    assert ds.X.tolist() == [[0.5, 2, 0, 1, 0, 1],
                             [0, 1, 0, 0, 1, 1],
                             [0.4, 0, 0, 1, 0, 1],
                             [0.3, 0, 0, 0, 0, 1],
                             [0.2, 2, 1, 0, 0, 1]]


def test_search_runs_on_a_prepared_csv_with_missing_cells(
        tmp_path, prepared_with_missing_cells):
    out = tmp_path / "run"
    assert main(["search", "--algorithm", "de", "--config",
                 str(tiny_config(tmp_path)), "--data",
                 str(prepared_with_missing_cells), "--out", str(out),
                 "--deterministic"]) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["n_evaluations"] == 16
    assert record["missing_rate"] == round(5 / 30, 6)


def test_prepare_empty_settings_cell_exits_2(tmp_path, capsys):
    raw = tmp_path / "missing.csv"
    raw.write_text(MISSING_TRACE.replace("0.4,,wifi,on", "0.4,,wifi,"))
    schema = tmp_path / "missing_schema.json"
    schema.write_text(json.dumps(MISSING_SCHEMA))
    out = tmp_path / "prepared"
    assert main(["prepare", "--input", str(raw), "--schema", str(schema),
                 "--output", str(out)]) == 2
    assert "line 4: settings column 'wifi' is empty" \
        in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_runs_on_a_csv_with_missing_entries(tmp_path):
    masked = tmp_path / "masked.csv"
    write_dataset_csv(synthesize(60, 4, 3, 3.0, seed=5), masked)
    header, *rows = masked.read_text().splitlines()
    # every fifth row misses its first feature
    masked.write_text("\n".join([header] + [
        "," + row.split(",", 1)[1] if i % 5 == 0 else row
        for i, row in enumerate(rows)]) + "\n")
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", str(tiny_config(
        tmp_path, dataset={"type": "csv", "path": "masked.csv"})),
        "--out", str(out), "--deterministic", "--quiet"]) == 0
    assert len((out / "results.jsonl").read_text().splitlines()) == 8


def test_search_reads_csv_beside_its_config(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    write_dataset_csv(synthesize(60, 4, 3, separation=3.0, seed=5),
                      cfg_dir / "prep.csv")
    cfg = tiny_config(cfg_dir, dataset={"type": "csv", "path": "prep.csv"})
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--algorithm", "de", "--config",
                 str(cfg.relative_to(tmp_path)), "--out", str(out),
                 "--deterministic"]) == 0
    assert json.loads((out / "run.json").read_text())["n_evaluations"] == 16


def test_search_writes_run_json(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--algorithm", "de", "--config", str(cfg),
                 "--out", str(out), "--deterministic"]) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["algorithm"] == "DE"
    assert record["n_evaluations"] == 16


def test_search_without_data_or_config_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["search", "--algorithm", "DE", "--out", str(out)]) == 2
    assert "needs --data or a --config" in capsys.readouterr().err
    assert not out.exists()


def test_integer_missing_rate_runs_the_float_experiment(tmp_path):
    # the cell seeds hash the rate's repr, so 0 must become 0.0 first
    results = []
    for rates in ([0, 0.4], [0.0, 0.4]):
        run_dir = tmp_path / repr(rates)
        run_dir.mkdir()
        cfg = tiny_config(run_dir, algorithms=["DE"], max_layers=1,
                          repeats=1, missing_rates=rates)
        out = run_dir / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--deterministic", "--quiet"]) == 0
        results.append((out / "results.jsonl").read_bytes())
    assert results[0] == results[1]


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
                 "mask": "masked.csv"}},
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
    {"dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 3,
                 "separation": float("nan")}},
    {"dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 3,
                 "separation": float("inf")}},
    {"dataset": {"type": "csv", "path": "non_finite.csv"}},
    {"dataset": {"type": "csv", "path": "finite.csv", "n": 999,
                 "seed": 3}},
    {"dataset": {"type": "synthetic", "n": 60, "p": 4, "classes": 3,
                 "path": "finite.csv"}},
    {"dataset": {"type": "csv", "path": ""}},
    {"dataset": {"type": "csv", "path": "."}},
    {"algorithms": ["DE", "bogus"]},
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
        "missing-rates-duplicate-int", "jobs-0", "jobs-negative",
        "separation-nan", "separation-inf", "csv-non-finite-feature",
        "csv-with-synthetic-keys", "synthetic-with-path", "csv-path-empty",
        "csv-path-directory", "algorithms-unknown"])
def test_bad_config_exits_2_before_work(tmp_path, capsys, overrides):
    overrides = dict(overrides)
    flags = overrides.pop("flags", [])  # command-line flags, not config
    # well-separated rows but for one nan and one inf cell, and the same
    # rows with those two cells finite
    rows = "f0,f1,label\n" + "".join(
        f"{v},{w},{label}\n" for label, v, w in (
            ("safe", 0.0, 0.0), ("safe", "nan", 0.1),
            ("warning", 5.0, 5.0), ("warning", 5.1, "inf"),
            ("critical", 10.0, 10.0), ("critical", 10.1, 10.1)))
    (tmp_path / "non_finite.csv").write_text(rows)
    (tmp_path / "finite.csv").write_text(
        rows.replace("nan", "0.2").replace("inf", "5.2"))
    cfg = tiny_config(tmp_path, **overrides)
    out = tmp_path / "b"
    code = main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--quiet", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "results.jsonl").exists()


# a good mapping per JSON input class, and the wrong-typed values each
# kind of field must refuse
_GOOD_INPUTS = {
    SearchConfig: {}, EvalConfig: {}, SearchSpace: {}, SyntheticData: {},
    CsvData: {"path": "data.csv"},
    DataSchema: {"features": {"cpu": "numeric"}},
    RunRecord: {"algorithm": "DE", "missing_rate": 0.2, "repeat": 0,
                "fitness": 10.0, "accuracy": 90.0, "f_measure": 88.0,
                "architecture": {}, "genome": {}, "stage_traces": [],
                "n_evaluations": 8, "seed": 1, "wall_time": 0.5},
}
_WRONG_VALUES = {int: ["7", True], float: ["0.5", True, math.nan],
                 tuple: ["DE", 0.2]}


@pytest.mark.parametrize("cls, name, value", [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in _GOOD_INPUTS for f in fields(cls)
    for value in _WRONG_VALUES.get(f.type, [1])])
def test_every_input_field_refuses_a_wrong_type(cls, name, value):
    good = _GOOD_INPUTS[cls]
    build(cls, good, "input")  # the mapping itself passes
    with pytest.raises(ValueError, match=name):
        build(cls, dict(good, **{name: value}), "input")


def test_manifest_config_loads_back_equal(tmp_path):
    loaded, _ = load_config(tiny_config(tmp_path))
    for cfg in (loaded, SearchConfig()):
        path = tmp_path / "manifest_config.json"
        path.write_text(json.dumps(config_manifest(cfg)["config"]))
        assert load_config(path) == (cfg, None)


def test_manifest_records_the_resolved_dataset(tmp_path):
    given = {"type": "synthetic", "n": 60, "p": 4, "classes": 3}
    path = tiny_config(tmp_path, algorithms=["DE"], repeats=1,
                       dataset=given)
    out = tmp_path / "b"
    assert main(["benchmark", "--config", str(path), "--out", str(out),
                 "--deterministic", "--quiet"]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["dataset"]
    assert recorded == dict(given, separation=4.0, seed=0)
    assert isinstance(recorded["separation"], float)
    (tmp_path / "again").mkdir()
    again = tiny_config(tmp_path / "again", dataset=recorded)
    assert load_config(again)[1] == SyntheticData(n=60, p=4, classes=3)


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


def _with_failed_cells(bench_dir, path, failed):
    """The bench results with the (algorithm, rate) cells in `failed`
    turned into error records."""
    with open(bench_dir / "results.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    for r in records:
        if (r["algorithm"], r["missing_rate"]) in failed:
            r.update(fitness=None, accuracy=None, f_measure=None,
                     architecture={}, genome={}, stage_traces=[],
                     n_evaluations=0, error="RuntimeError: failed")
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records))
    return path


def test_stats_ranks_only_rates_every_algorithm_completed(bench_dir,
                                                         tmp_path):
    results = _with_failed_cells(bench_dir, tmp_path / "partial.jsonl",
                                 {("PSO", 0.4)})
    out = tmp_path / "s"
    assert main(["stats", "--results", str(results), "--out", str(out)]) == 0
    fried = json.loads((out / "friedman.json").read_text())
    assert fried["blocks"] == [0.0]
    assert fried["treatments"] == ["DE", "PSO", "CMA-ES"]
    with open(out / "stability.csv") as fh:
        assert len(list(csv.reader(fh))) == 1  # one rate: header only
    with open(out / "summary.csv") as fh:
        cells = [row[:2] for row in list(csv.reader(fh))[1:]]
    assert len(cells) == 5 and ["0.4", "PSO"] not in cells


def test_stats_without_a_complete_rate_exits_2(bench_dir, tmp_path,
                                               capsys):
    results = _with_failed_cells(bench_dir, tmp_path / "partial.jsonl",
                                 {("PSO", 0.0), ("DE", 0.4)})
    out = tmp_path / "s"
    assert main(["stats", "--results", str(results), "--out", str(out)]) == 2
    assert "no missing rate has results for every algorithm" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["5", "1", "0", "-1", "nan"])
def test_stats_alpha_outside_unit_interval_exits_2(bench_dir, tmp_path,
                                                   capsys, alpha):
    out = tmp_path / "s"
    assert main(["stats", "--results", str(bench_dir / "results.jsonl"),
                 "--alpha", alpha, "--out", str(out)]) == 2
    assert "alpha must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


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


def test_report_follows_stats_order_and_draws_no_bar_without_a_score(
        bench_dir, tmp_path):
    # PSO has error records only: no architecture row, no bar, and n/a
    # for its mean; DE comes before CMA-ES, as in every stats table
    results = _with_failed_cells(bench_dir, tmp_path / "failed.jsonl",
                                 {("PSO", 0.0), ("PSO", 0.4)})
    out = tmp_path / "report"
    assert main(["report", "--results", str(results),
                 "--out", str(out)]) == 0
    for rate in ("0", "0.4"):
        with open(out / f"architectures_rate_{rate}.csv") as fh:
            assert [row[0] for row in list(csv.reader(fh))[1:]] \
                == ["DE", "CMA-ES"]
    root = ET.fromstring((out / "accuracy_by_algorithm.svg").read_text())
    bars = [el for el in root.iter()
            if el.tag.endswith("rect") and el.get("class") == "bar"]
    assert len(bars) == 2
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert texts[texts.index("PSO") + 1] == "n/a"
    assert texts.count("n/a") == 1


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


@pytest.mark.parametrize("command, flag", [("benchmark", "--config"),
                                           ("stats", "--results"),
                                           ("report", "--results")])
def test_directory_for_an_input_file_exits_2(tmp_path, capsys, command,
                                              flag):
    out = tmp_path / "out"
    assert main([command, flag, str(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


def test_integral_floats_read_as_floats(bench_dir, tmp_path):
    # json writes a float 0.0 as 0.0 and an int 0 as 0; both name one rate
    records = [json.loads(line) for line
               in (bench_dir / "results.jsonl").read_text().splitlines()]
    records[0].update(fitness=25.0, accuracy=75.0, f_measure=60.0)
    outputs = []
    for kind in (float, int):
        run = tmp_path / kind.__name__
        run.mkdir()
        results = run / "results.jsonl"
        results.write_text("".join(json.dumps(dict(r, **{
            key: kind(value) for key, value in r.items()
            if isinstance(value, float) and value.is_integer()}),
            sort_keys=True) + "\n" for r in records))
        for command in ("stats", "report"):
            assert main([command, "--results", str(results),
                         "--out", str(run / command)]) == 0
        outputs.append({path.relative_to(run).as_posix(): path.read_bytes()
                        for path in run.glob("*/*")})
    assert b'"missing_rate": 0,' in (tmp_path / "int" / "results.jsonl"
                                    ).read_bytes()
    assert outputs[0] == outputs[1]


# a results line that is not a RunRecord, made from a good one
_BAD_RESULTS_LINES = {
    "missing_keys": lambda r: json.dumps({"algorithm": "DE"}),
    "string_accuracy": lambda r: json.dumps(dict(r, accuracy="91.5")),
    "unknown_key": lambda r: json.dumps(dict(r, score=1.0)),
    "clean_record_without_accuracy":
        lambda r: json.dumps(dict(r, accuracy=None)),
    "not_an_object": lambda r: json.dumps([r]),
    "truncated": lambda r: json.dumps(r)[:40],
    "duplicate_cell": lambda r: json.dumps(r),
    # a cell of its own, so only the non-finite score can reject the line
    "nan_accuracy": lambda r: json.dumps(
        dict(r, repeat=r["repeat"] + 1, accuracy=float("nan"))),
    "infinite_fitness": lambda r: json.dumps(
        dict(r, repeat=r["repeat"] + 1, fitness=float("inf"))),
    "overflowing_fitness": lambda r: json.dumps(
        dict(r, repeat=r["repeat"] + 1, fitness=10 ** 400)),
    **{f"{name}_learning_rate": lambda r, lr=lr: json.dumps(dict(
        r, repeat=r["repeat"] + 1,
        architecture=dict(r["architecture"], learning_rate=lr)))
       for name, lr in [("list", [1]), ("string", "x"), ("bool", True),
                        ("null", None)]},
}


@pytest.mark.parametrize("bad", _BAD_RESULTS_LINES)
@pytest.mark.parametrize("command", ["stats", "report"])
def test_bad_results_line_exits_2_naming_it(bench_dir, tmp_path, capsys,
                                            command, bad):
    first = (bench_dir / "results.jsonl").read_text().splitlines()[0]
    results = tmp_path / "results.jsonl"
    results.write_text(
        first + "\n" + _BAD_RESULTS_LINES[bad](json.loads(first)) + "\n")
    out = tmp_path / "out"
    assert main([command, "--results", str(results), "--out", str(out)]) == 2
    assert "line 2:" in capsys.readouterr().err
    assert not out.exists()
