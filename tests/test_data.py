import dataclasses
import io

import numpy as np
import pytest

from evomlp.data import (CLASS_NAMES, DataSchema, DegenerateIntervalError,
                         FilteredStateError, LabeledDataset, RowParseError,
                         SchemaError, StateRow, compute_ecpm,
                         ingest, inject_missing, label_ecpm,
                         read_dataset_csv, read_masked_csv, synthesize,
                         write_dataset_csv, write_mask_csv)

SCHEMA = DataSchema(
    features={"cpu": "numeric", "wifi": {"ordinal": ["off", "on"]}},
    settings=("wifi",),
)


def _state(ts, level, state="discharging", cpu="1.0", wifi="on"):
    return StateRow(timestamp=ts, battery_level=level, battery_state=state,
                    features={"cpu": cpu, "wifi": wifi})


def _trace(rows):
    lines = ["timestamp,battery_state,battery_level,cpu,wifi"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return io.StringIO("\n".join(lines))


def test_ecpm_one_percent_per_minute():
    assert compute_ecpm(_state(0, 80), _state(60, 79)) == pytest.approx(1.0)


def test_ecpm_direct_arithmetic():
    assert compute_ecpm(_state(0, 90), _state(120, 89.5)) \
        == pytest.approx(0.25)


def test_ecpm_zero_interval_rejected():
    with pytest.raises(DegenerateIntervalError):
        compute_ecpm(_state(50, 80), _state(50, 79))


def test_ecpm_requires_discharging():
    with pytest.raises(FilteredStateError):
        compute_ecpm(_state(0, 80, state="charging"), _state(60, 79))


def test_label_thresholds():
    assert CLASS_NAMES[label_ecpm(0.3)] == "safe"
    assert CLASS_NAMES[label_ecpm(1.0)] == "warning"
    assert CLASS_NAMES[label_ecpm(2.0)] == "critical"
    # boundary values are not in the open outer regions
    assert CLASS_NAMES[label_ecpm(0.5)] == "warning"
    assert CLASS_NAMES[label_ecpm(1.5)] == "warning"


def test_label_rejects_non_finite():
    with pytest.raises(ValueError):
        label_ecpm(float("nan"))
    with pytest.raises(ValueError):
        label_ecpm(float("inf"))


def test_ingest_charging_only_is_empty():
    ds = ingest(_trace([(0, "charging", 80, 1.0, "on"),
                        (60, "charging", 82, 1.0, "on")]), SCHEMA)
    assert ds.n == 0
    assert ds.feature_names == ["cpu", "wifi"]


def test_ingest_charging_gap_excludes_next_row():
    # discharging, charging, discharging, discharging: the charging row
    # and the row after it are excluded, so no pair forms until the row
    # following the excluded one
    ds = ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                        (60, "charging", 80, 1.0, "on"),
                        (120, "discharging", 79, 1.0, "on"),
                        (180, "discharging", 78, 1.0, "on")]), SCHEMA)
    assert ds.n == 0
    ds = ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                        (60, "charging", 80, 1.0, "on"),
                        (120, "discharging", 79, 1.0, "on"),
                        (180, "discharging", 78, 1.0, "on"),
                        (240, "discharging", 77, 1.0, "on")]), SCHEMA)
    assert ds.n == 1  # only the last pair survives


def test_ingest_two_consecutive_pairs():
    ds = ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                        (60, "discharging", 79, 2.0, "on"),
                        (120, "discharging", 78.9, 3.0, "on")]), SCHEMA)
    assert ds.n == 2
    assert ds.y.tolist() == [label_ecpm(1.0), label_ecpm(0.1)]
    # instance features come from the earlier state of each pair
    assert ds.X[:, 0].tolist() == [1.0, 2.0]


def test_ingest_missing_column_names_it():
    stream = io.StringIO("timestamp,battery_state,cpu,wifi\n")
    with pytest.raises(SchemaError, match="battery_level"):
        ingest(stream, SCHEMA)


def test_ingest_bad_cell_reports_line():
    with pytest.raises(RowParseError, match="line 3"):
        ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                       (60, "oops", 79, 1.0, "on")]), SCHEMA)


def test_ingest_rejects_out_of_range_battery_level():
    with pytest.raises(RowParseError, match="battery_level"):
        ingest(_trace([(0, "discharging", 120, 1.0, "on")]), SCHEMA)


def test_ingest_settings_change_drops_pair():
    ds = ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                        (60, "discharging", 79, 1.0, "off"),
                        (120, "discharging", 78, 1.0, "off")]), SCHEMA)
    assert ds.n == 1  # first pair flips wifi, second keeps it


def test_ingest_labels_are_reproducible():
    rows = [(i * 60, "discharging", 90 - 0.7 * i, 1.0, "on")
            for i in range(20)]
    a = ingest(_trace(rows), SCHEMA)
    b = ingest(_trace(rows), SCHEMA)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, b.X)


def _blob_dataset(n=20, p=5):
    rng = np.random.default_rng(0)
    return LabeledDataset(X=rng.normal(size=(n, p)),
                          y=rng.integers(0, 3, size=n),
                          feature_names=[f"f{i}" for i in range(p)])


def test_inject_missing_rate_zero_is_identity():
    ds = _blob_dataset()
    mds = inject_missing(ds, 0.0, seed=1)
    assert np.all(mds.M == 1)
    assert np.array_equal(mds.X, ds.X)


def test_inject_missing_exact_count():
    # 18,400 elements at 5% -> exactly 920 masked entries
    ds = _blob_dataset(n=800, p=23)
    assert ds.X.size == 18400
    mds = inject_missing(ds, 0.05, seed=2)
    assert int(mds.M.size - mds.M.sum()) == 920


def test_inject_missing_grid_of_rates_exact():
    ds = _blob_dataset(n=40, p=7)
    for rate in (0.0, 0.05, 0.2, 0.4):
        mds = inject_missing(ds, rate, seed=3)
        assert int(mds.M.size - mds.M.sum()) == int(rate * ds.X.size)


def test_inject_missing_zeroes_masked_entries():
    ds = _blob_dataset()
    mds = inject_missing(ds, 0.4, seed=4)
    assert np.all(mds.X * (1 - mds.M) == 0)
    assert np.array_equal(mds.X[mds.M == 1], ds.X[mds.M == 1])


def test_inject_missing_seeded():
    ds = _blob_dataset()
    a = inject_missing(ds, 0.3, seed=5)
    b = inject_missing(ds, 0.3, seed=5)
    assert np.array_equal(a.M, b.M)


def test_inject_missing_rejects_masked_dataset():
    # injecting again would draw a fresh mask over the first one and
    # mark some of its zeroed entries as observed
    mds = inject_missing(_blob_dataset(n=100), 0.2, seed=1)
    with pytest.raises(ValueError, match="missing entries"):
        inject_missing(mds, 0.2, seed=2)


def test_inject_missing_rejects_bad_rate():
    ds = _blob_dataset()
    with pytest.raises(ValueError):
        inject_missing(ds, -0.1, seed=0)
    with pytest.raises(ValueError):
        inject_missing(ds, 0.96, seed=0)


def test_synthesize_balanced_classes():
    ds = synthesize(600, 12, 3, separation=4.0, seed=0)
    assert np.bincount(ds.y).tolist() == [200, 200, 200]
    ds = synthesize(601, 4, 3, separation=1.0, seed=0)
    assert sorted(np.bincount(ds.y).tolist()) == [200, 200, 201]


def test_synthesize_seeded():
    a = synthesize(100, 6, 3, 2.0, seed=1)
    b = synthesize(100, 6, 3, 2.0, seed=1)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_synthesize_zero_separation_identical_distributions():
    ds = synthesize(3000, 4, 3, separation=0.0, seed=2)
    means = [ds.X[ds.y == c].mean(axis=0) for c in range(3)]
    for m in means[1:]:
        assert np.allclose(m, means[0], atol=0.15)


def test_dataset_csv_round_trip(tmp_path):
    ds = _blob_dataset()
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert back.feature_names == ds.feature_names


def test_masked_csv_round_trip(tmp_path):
    ds = _blob_dataset()
    mds = inject_missing(ds, 0.25, seed=6)
    data_path = tmp_path / "masked.csv"
    mask_path = tmp_path / "mask.csv"
    write_dataset_csv(LabeledDataset(X=mds.X, y=mds.y,
                                     feature_names=mds.feature_names),
                      data_path)
    write_mask_csv(mds, mask_path)
    back = read_masked_csv(data_path, mask_path)
    assert np.array_equal(back.X, mds.X)
    assert np.array_equal(back.M, mds.M)
    assert np.array_equal(back.y, mds.y)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_dataset_csv_rejects_non_finite_features(tmp_path, cell):
    path = tmp_path / "ds.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,safe\n0.5,{cell},warning\n")
    with pytest.raises(RowParseError, match="line 3"):
        read_dataset_csv(path)


def test_dataset_csv_empty_file_has_no_header(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="header"):
        read_dataset_csv(path)


def test_dataset_csv_rejects_blank_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("a,b,label\n1.0,2.0,safe\n\n3.0,4.0,warning\n")
    with pytest.raises(RowParseError, match="line 3: 0 cells"):
        read_dataset_csv(path)


@pytest.mark.parametrize("row", ["1.0,safe", "1.0,2.0,3.0,safe"])
def test_dataset_csv_rejects_row_unlike_header(tmp_path, row):
    path = tmp_path / "ds.csv"
    path.write_text(f"a,b,label\n{row}\n")
    with pytest.raises(RowParseError, match="line 2: .* header of 3"):
        read_dataset_csv(path)


@pytest.mark.parametrize("line", ["60,discharging", "60,discharging,79,1.0",
                                  "60,discharging,79,1.0,on,extra", ""],
                         ids=["two-cells", "four-cells", "six-cells",
                              "blank"])
def test_ingest_rejects_row_unlike_header(line):
    stream = io.StringIO("timestamp,battery_state,battery_level,cpu,wifi\n"
                         f"0,discharging,80,1.0,on\n{line}\n"
                         "120,discharging,78,1.0,on\n")
    with pytest.raises(RowParseError, match="line 3: .* header of 5"):
        ingest(stream, SCHEMA)


@pytest.mark.parametrize("stamp", ["inf", "-inf", "nan"])
def test_ingest_rejects_non_finite_timestamp(stamp):
    with pytest.raises(RowParseError,
                       match=f"line 4: timestamp '{stamp}' is not a finite"):
        ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                       (60, "discharging", 79, 1.0, "on"),
                       (stamp, "discharging", 78, 1.0, "on")]), SCHEMA)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_ingest_rejects_non_finite_numeric_cell(cell):
    with pytest.raises(RowParseError, match=f"line 3: cpu: '{cell}'"):
        ingest(_trace([(0, "discharging", 80, 1.0, "on"),
                       (60, "discharging", 79, cell, "on"),
                       (120, "discharging", 78, 1.0, "on")]), SCHEMA)


@pytest.mark.parametrize("entry", ["0.5", "2", "-1", "nan"])
def test_masked_csv_rejects_non_binary_mask(tmp_path, entry):
    ds = _blob_dataset(n=3, p=2)
    data_path, mask_path = tmp_path / "ds.csv", tmp_path / "mask.csv"
    write_dataset_csv(ds, data_path)
    mask_path.write_text(f"1,0\n{entry},1\n1,1\n")
    with pytest.raises(SchemaError, match="0 .* or 1"):
        read_masked_csv(data_path, mask_path)


_GATE_X = np.arange(36, dtype=float).reshape(9, 4)


def _with_cell(value):
    X = _GATE_X.copy()
    X[4, 2] = value
    return X


@pytest.mark.parametrize("fields, message", [
    ({"X": _with_cell(np.nan)}, "not finite"),
    ({"X": _with_cell(np.inf)}, "not finite"),
    ({"X": _GATE_X[:, 0]}, "2-D"),
    ({"M": np.full((9, 4), 0.5)}, "mask entries"),
    ({"M": np.ones((9, 3))}, "mask shape"),
    ({"y": np.arange(8) % 3}, "labels"),
    ({"y": (np.arange(9) % 3).astype(float)}, "labels"),
    ({"y": np.arange(9) % 3 + 1}, "labels"),
    ({"feature_names": ["a", "b", "c"]}, "feature names"),
], ids=["nan_cell", "inf_cell", "1d_features", "half_mask", "mask_shape",
        "short_labels", "float_labels", "label_outside_classes",
        "too_few_names"])
def test_dataset_rejects_malformed_fields(fields, message):
    kwargs = dict(X=_GATE_X, y=np.arange(9) % 3,
                  feature_names=["a", "b", "c", "d"])
    with pytest.raises(SchemaError, match=message):
        LabeledDataset(**dict(kwargs, **fields))


def test_complete_dataset_mask_is_all_ones():
    ds = _blob_dataset()
    assert ds.M.shape == ds.X.shape
    assert np.all(ds.M == 1)


def _relabel_row_7(ds):
    ds.y[7] = -1


def _mask_one_entry(ds):
    ds.M[0, 0] = 0.0


@pytest.mark.parametrize("change", [
    _relabel_row_7,
    _mask_one_entry,
    lambda ds: setattr(ds, "y", np.full(ds.n, -1)),
    lambda ds: setattr(ds, "M", np.full(ds.X.shape, 0.5)),
], ids=["label_write", "mask_write", "labels_reassigned",
        "mask_reassigned"])
def test_dataset_cannot_change_past_its_gate(change):
    ds = _blob_dataset()
    with pytest.raises((ValueError, dataclasses.FrozenInstanceError)):
        change(ds)
    assert np.all((ds.y >= 0) & (ds.y < len(CLASS_NAMES)))
    assert np.all(ds.M == 1)


def test_dataset_leaves_the_callers_arrays_writable():
    X, y = np.zeros((6, 2)), np.arange(6) % 3
    ds = LabeledDataset(X=X, y=y, feature_names=["a", "b"])
    X[0, 0], y[0] = 1.0, 2
    assert ds.X[0, 0] == 0.0 and ds.y[0] == 0  # copies, not views
    assert not (ds.X.flags.writeable or ds.y.flags.writeable
                or ds.M.flags.writeable)


def test_masked_csv_rejects_mask_of_another_shape(tmp_path):
    ds = _blob_dataset(n=3, p=2)
    data_path, mask_path = tmp_path / "ds.csv", tmp_path / "mask.csv"
    write_dataset_csv(ds, data_path)
    mask_path.write_text("1,0,1\n0,1,1\n1,1,1\n")
    with pytest.raises(SchemaError, match="mask shape"):
        read_masked_csv(data_path, mask_path)


def test_onehot_encoding():
    schema = DataSchema(features={"net": {"onehot": ["none", "wifi",
                                                     "cell"]}})
    lines = io.StringIO(
        "timestamp,battery_state,battery_level,net\n"
        "0,discharging,80,wifi\n"
        "60,discharging,79,wifi\n")
    ds = ingest(lines, schema)
    assert ds.feature_names == ["net=none", "net=wifi", "net=cell"]
    assert ds.X.tolist() == [[0.0, 1.0, 0.0]]


def test_schema_encodes_interleaved_kinds_in_declared_order():
    schema = DataSchema(features={
        "net": {"onehot": ["none", "wifi", "cell"]},
        "cpu": "numeric",
        "screen": {"ordinal": ["off", "dim", "on"]},
        "gps": {"onehot": ["off", "on"]},
        "temperature": "numeric",
        "wifi": {"ordinal": ["off", "on"]}})
    assert schema.encoded_names() == [
        "net=none", "net=wifi", "net=cell", "cpu", "screen", "gps=off",
        "gps=on", "temperature", "wifi"]
    assert schema.encode_row({
        "net": "cell", "cpu": "0.25", "screen": "dim", "gps": "off",
        "temperature": "31.5", "wifi": "on"}) == [
        0.0, 0.0, 1.0, 0.25, 1.0, 1.0, 0.0, 31.5, 1.0]


@pytest.mark.parametrize("kind", ["ordinal", "onehot"])
def test_schema_refuses_an_unknown_category(kind):
    schema = DataSchema(features={"cpu": "numeric",
                                  "net": {kind: ["wifi", "cell"]}})
    with pytest.raises(ValueError, match="net: unknown category 'lte'"):
        schema.encode_row({"cpu": "0.5", "net": "lte"})

