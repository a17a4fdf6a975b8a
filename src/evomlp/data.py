"""Battery-trace ingestion, energy-rate labeling, and mask handling.

The pipeline turns a raw per-state telemetry CSV into a labeled feature
matrix: charging states are dropped, consecutive discharging states are
paired, each pair's battery drop per minute becomes its class label, and
the features of the earlier state describe the instance. Every dataset
carries a binary mask of its observed entries, all ones when the dataset
is complete. An empty feature cell is a missing value, in a raw trace
and in a dataset CSV alike: it reads as value 0 and mask 0, and a dataset
CSV writes an empty cell wherever the mask is 0. Controlled missingness
is injected afterwards by zeroing observed entries and their mask.
"""

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .genome import build

CLASS_NAMES = ("safe", "warning", "critical")
MAX_MISSING_RATE = 0.95
SAFE_BELOW = 0.5
CRITICAL_ABOVE = 1.5

CHARGING = "charging"
DISCHARGING = "discharging"


class SchemaError(ValueError):
    """A required column is absent or the schema is malformed."""


class RowParseError(ValueError):
    """A row or one of its cells could not be parsed; message carries
    the line number."""


class DegenerateIntervalError(ValueError):
    """Two states share a timestamp, so no rate can be computed."""


class FilteredStateError(ValueError):
    """A charging state reached a computation that assumes discharging."""


@dataclass(frozen=True)
class StateRow:
    timestamp: float
    battery_level: float
    battery_state: str
    features: dict
    lineno: int = 0  # the trace line the row starts on


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix, integer labels (0=safe, 1=warning, 2=critical) and
    the mask M that says which entries were observed (1) versus missing
    (0); missing entries of X are zero. M defaults to all ones, a
    complete dataset.

    Construction checks every dataset, however it was made: SchemaError
    unless X is 2-D with at least one column and finite, M has X's
    shape and holds only 0 and 1, y holds n integer labels of
    CLASS_NAMES, and there are p distinct feature names. A dataset is
    frozen and keeps read-only copies of X, y and M, so nothing reaches
    it past that check, neither through the dataset nor through the
    caller's arrays, which stay writable."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list
    M: np.ndarray = None

    def __post_init__(self):
        if self.M is None:
            object.__setattr__(self, "M", np.ones_like(self.X))
        for name in ("X", "y", "M"):
            copy = np.array(getattr(self, name))
            copy.flags.writeable = False
            object.__setattr__(self, name, copy)
        if self.X.ndim != 2 or self.X.shape[1] < 1:
            raise SchemaError(f"features must be 2-D with at least one "
                              f"column, got shape {self.X.shape}")
        if not np.isfinite(self.X).all():
            raise SchemaError(f"{np.count_nonzero(~np.isfinite(self.X))} "
                              "feature values are not finite numbers")
        if self.M.shape != self.X.shape:
            raise SchemaError(f"mask shape {self.M.shape} does not match "
                              f"data {self.X.shape}")
        if not np.all((self.M == 0) | (self.M == 1)):
            raise SchemaError(
                "mask entries must be 0 (missing) or 1 (observed)")
        if (self.y.shape != (self.n,)
                or not np.issubdtype(self.y.dtype, np.integer)):
            raise SchemaError(f"labels must be {self.n} integers, got "
                              f"{self.y.dtype} of shape {self.y.shape}")
        if np.any((self.y < 0) | (self.y >= len(CLASS_NAMES))):
            raise SchemaError(
                f"labels must lie in [0, {len(CLASS_NAMES)})")
        if len(self.feature_names) != self.p:
            raise SchemaError(f"{len(self.feature_names)} feature names "
                              f"for {self.p} features")
        _names(self.feature_names, "feature names")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


def _names(value, what):
    """value as a tuple; SchemaError unless it is a list or tuple of
    distinct strings (a string alone would be read character by
    character, and a repeated category encodes as a duplicate column)."""
    if (not isinstance(value, (list, tuple)) or len(set(value)) < len(value)
            or not all(isinstance(v, str) for v in value)):
        raise SchemaError(
            f"{what} must be a list of distinct strings, got {value!r}")
    return tuple(value)


def _column(name, kind):
    """(name, categories or None, onehot) of a feature of the given kind;
    SchemaError for a kind that is not one of DataSchema's."""
    if kind == "numeric":
        return name, None, False
    if isinstance(kind, dict) and set(kind) in ({"ordinal"}, {"onehot"}):
        (how, cats), = kind.items()
        return (name, _names(cats, f"feature {name!r} categories"),
                how == "onehot")
    raise SchemaError(f"feature {name!r} has unknown kind {kind!r}")


@dataclass(frozen=True)
class DataSchema:
    """Declares the feature columns of a raw trace and how to encode them.

    features maps column name -> "numeric", {"ordinal": [...]} or
    {"onehot": [...]}; settings lists the columns that must stay unchanged
    between two paired states. Construction parses each kind once into
    columns, (name, categories or None for a numeric one, onehot), which
    the encoder reads.
    """

    features: dict
    settings: tuple = ()

    def __post_init__(self):
        if not isinstance(self.features, dict) or not self.features:
            raise SchemaError("schema features must be a non-empty object")
        object.__setattr__(self, "columns", tuple(
            _column(name, kind) for name, kind in self.features.items()))
        for name in _names(self.settings, "settings"):
            if name not in self.features:
                raise SchemaError(f"settings column {name!r} not a feature")

    @classmethod
    def from_dict(cls, d):
        """The schema a parsed JSON object declares; ValueError naming an
        unknown key."""
        return build(cls, d, "schema")

    def encoded_names(self):
        names = []
        for name, cats, onehot in self.columns:
            names += [f"{name}={cat}" for cat in cats] if onehot else [name]
        return names

    def encode_row(self, features):
        """(values, mask) of one row's features; an empty cell is missing,
        so every column it encodes to, all of a one-hot feature's, gets
        value 0 and mask 0."""
        out, mask = [], []
        for name, cats, onehot in self.columns:
            value = features[name]
            width = len(cats) if onehot else 1
            mask += [float(value != "")] * width
            if value == "":
                out += [0.0] * width
            elif cats is None:
                out.append(float(value))
                if not math.isfinite(out[-1]):
                    raise ValueError(f"{name}: {value!r} is not a finite "
                                     "number")
            elif value not in cats:
                raise ValueError(f"{name}: unknown category {value!r}")
            elif onehot:
                out.extend(1.0 if value == cat else 0.0 for cat in cats)
            else:
                out.append(float(cats.index(value)))
        return out, mask


def compute_ecpm(state1, state2):
    """Battery percentage consumed per minute between consecutive
    discharging states."""
    if state1.battery_state != DISCHARGING \
            or state2.battery_state != DISCHARGING:
        raise FilteredStateError("both states must be discharging")
    dt = state2.timestamp - state1.timestamp
    if dt == 0:
        raise DegenerateIntervalError("states share a timestamp")
    if dt < 0:
        raise ValueError("state2 must come after state1")
    return (state1.battery_level - state2.battery_level) / dt * 60.0


def label_ecpm(ecpm):
    """Class index for an energy rate: below 0.5 is safe, above 1.5 is
    critical, anything between is warning."""
    if not np.isfinite(ecpm):
        raise ValueError(f"non-finite ecpm {ecpm}")
    if ecpm < SAFE_BELOW:
        return 0
    if ecpm > CRITICAL_ABOVE:
        return 2
    return 1


def _rows(reader, header):
    """(line number, cells) of each row after the header, the number
    being the physical line the row starts on (a quoted cell may span
    lines); RowParseError naming the line for a row, a blank one
    included, whose cell count differs from the header's."""
    lineno = reader.line_num + 1
    for cells in reader:
        if len(cells) != len(header):
            raise RowParseError(f"line {lineno}: {len(cells)} cells under a "
                                f"header of {len(header)}")
        yield lineno, cells
        lineno = reader.line_num + 1


def _parse_state_rows(stream, schema):
    reader = csv.reader(stream)
    header = next(reader, [])
    required = ["timestamp", "battery_state", "battery_level"]
    for col in required + list(schema.features):
        if col not in header:
            raise SchemaError(f"missing column {col!r}")
    rows = []
    for lineno, cells in _rows(reader, header):
        rec = dict(zip(header, cells))
        try:
            state = rec["battery_state"].strip()
            if state not in (CHARGING, DISCHARGING):
                raise ValueError(f"unknown battery_state {state!r}")
            level = float(rec["battery_level"])
            if not 0.0 <= level <= 100.0:
                raise ValueError(f"battery_level {level} outside [0, 100]")
            timestamp = float(rec["timestamp"])
            if not math.isfinite(timestamp):
                raise ValueError(f"timestamp {rec['timestamp']!r} is not a "
                                 "finite number")
            for name in schema.settings:
                if rec[name] == "":  # pairing compares it
                    raise ValueError(f"settings column {name!r} is empty")
            rows.append(StateRow(
                timestamp=timestamp,
                battery_level=level,
                battery_state=state,
                features={name: rec[name] for name in schema.features},
                lineno=lineno,
            ))
        except ValueError as exc:
            raise RowParseError(f"line {lineno}: {exc}") from exc
    return rows


def ingest(stream, schema):
    """Build a LabeledDataset from a text stream of a raw trace CSV.

    Pairing walks original-stream-consecutive rows: neither may be
    excluded, which leaves two discharging rows (every charging row is
    excluded, and by the charging-gap rule a charging state between two
    discharging ones also knocks out the next row), the settings columns
    must match, and time must advance. An empty feature cell is missing
    (DataSchema.encode_row); an empty settings cell is a RowParseError.
    """
    rows = _parse_state_rows(stream, schema)

    excluded = [r.battery_state == CHARGING for r in rows]
    for j in range(1, len(rows) - 1):
        if (rows[j].battery_state == CHARGING
                and rows[j - 1].battery_state == DISCHARGING
                and rows[j + 1].battery_state == DISCHARGING):
            excluded[j + 1] = True

    X_rows, M_rows, labels = [], [], []
    for j in range(len(rows) - 1):
        a, b = rows[j], rows[j + 1]
        if excluded[j] or excluded[j + 1]:
            continue
        if b.timestamp <= a.timestamp:
            continue
        if any(a.features[s] != b.features[s] for s in schema.settings):
            continue
        try:
            values, mask = schema.encode_row(a.features)
        except ValueError as exc:
            raise RowParseError(f"line {a.lineno}: {exc}") from exc
        X_rows.append(values)
        M_rows.append(mask)
        labels.append(label_ecpm(compute_ecpm(a, b)))

    return _dataset(X_rows, M_rows, labels, schema.encoded_names())


def is_missing_rate(rate):
    """True for a real number, not a bool, in [0, MAX_MISSING_RATE]."""
    return (isinstance(rate, numbers.Real) and not isinstance(rate, bool)
            and 0.0 <= rate <= MAX_MISSING_RATE)


def _generator(seed):
    """The Generator that seed starts; ValueError naming a negative seed
    and its value, which NumPy's own message leaves out."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def inject_missing(ds, rate, seed):
    """Zero out exactly floor(rate * n * p) more entries, drawn uniformly
    among the observed ones.

    The rate counts entries of the whole table, missing ones included.
    The chosen positions get mask 0 and value 0; everything else, every
    earlier missing entry too, is kept. The same seed always removes the
    same positions, and on a complete dataset the draw is choice(n * p).
    A ValueError names both counts when fewer entries are observed.
    """
    if not is_missing_rate(rate):
        raise ValueError(
            f"missing rate {rate!r} is not a number in "
            f"[0, {MAX_MISSING_RATE}]")
    k = int(np.floor(rate * ds.M.size))
    observed = np.count_nonzero(ds.M)
    if k > observed:
        raise ValueError(f"missing rate {rate} masks {k} entries, but only "
                         f"{observed} of {ds.M.size} are observed")
    # drawn before M is copied, so the index array is freed by then
    drawn = _generator(seed).choice(np.flatnonzero(ds.M), k, replace=False)
    M = ds.M.copy()
    M.flat[drawn] = 0.0
    return LabeledDataset(X=ds.X * M, y=ds.y,
                          feature_names=list(ds.feature_names), M=M)


def synthesize(n, p, n_classes, separation, seed):
    """Desk-scale stand-in data: balanced Gaussian blobs whose class means
    sit `separation` away from the origin along random directions."""
    if n < 1 or p < 1 or n_classes < 1:
        raise ValueError("n, p and n_classes must all be >= 1")
    if n_classes > len(CLASS_NAMES):
        raise ValueError(f"n_classes {n_classes} exceeds the "
                         f"{len(CLASS_NAMES)} classes {CLASS_NAMES}")
    rng = _generator(seed)
    directions = rng.standard_normal((n_classes, p))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = separation * directions / norms

    counts = [n // n_classes + (1 if i < n % n_classes else 0)
              for i in range(n_classes)]
    X = np.vstack([
        means[c] + rng.standard_normal((counts[c], p))
        for c in range(n_classes)
    ])
    y = np.concatenate([np.full(counts[c], c, dtype=int)
                        for c in range(n_classes)])
    order = rng.permutation(n)
    names = [f"f{i}" for i in range(p)]
    return LabeledDataset(X=X[order], y=y[order], feature_names=names)


def _dataset(X_rows, M_rows, labels, names):
    shape = (len(X_rows), len(names))
    return LabeledDataset(X=np.array(X_rows, dtype=float).reshape(shape),
                          y=np.array(labels, dtype=int), feature_names=names,
                          M=np.array(M_rows, dtype=float).reshape(shape))


def write_dataset_csv(ds, path):
    """One row per instance, an empty cell where an entry is missing."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["label"])
        for xi, mi, yi in zip(ds.X, ds.M, ds.y):
            writer.writerow([repr(float(v)) if m else ""
                             for v, m in zip(xi, mi)] + [CLASS_NAMES[yi]])


def read_dataset_csv(path):
    """The dataset write_dataset_csv wrote; an empty feature cell reads as
    value 0 and mask 0."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise SchemaError("expected a header with a trailing 'label' "
                              "column")
        names = header[:-1]
        X_rows, M_rows, labels = [], [], []
        for lineno, rec in _rows(reader, header):
            try:
                M_rows.append([float(v != "") for v in rec[:-1]])
                X_rows.append([float(v) if v else 0.0 for v in rec[:-1]])
                if not np.all(np.isfinite(X_rows[-1])):
                    raise ValueError(f"feature values {rec[:-1]} are not "
                                     "all finite numbers")
                if rec[-1] not in CLASS_NAMES:
                    raise ValueError(f"label {rec[-1]!r} not in {CLASS_NAMES}")
                labels.append(CLASS_NAMES.index(rec[-1]))
            except ValueError as exc:
                raise RowParseError(f"line {lineno}: {exc}") from exc
    return _dataset(X_rows, M_rows, labels, names)
