"""Command-line surface: prepare, inject-missing, search, benchmark,
stats, report.

Exit codes: 0 success, 2 input/config error (a ValueError, or an OSError
such as a missing file or a directory given for one), 3 benchmark
finished with failed grid cells. All state is explicit (config file +
flags); under --deterministic every output byte is reproducible.

Each config section and the dataset is a frozen dataclass built by
genome.build, which refuses unknown keys, and checked by
genome.check_fields, which refuses a value of another type than its
field's; the dataclass holds every default. The manifest records the
resolved dataset: its type and every field. A trace schema goes through
the same build, so prepare refuses an unknown schema key.

search makes the fold split of its dataset (objective.split_folds) and
hands it to driver.layer_growth_search; benchmark leaves the splits to
driver.run_benchmark, which makes one per missing rate.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import data, driver, report
from .genome import SearchSpace, build, check_fields
from .objective import EvalConfig, split_folds
from .pbmh import ConfigError, canonical_name
from .seeding import derive_seed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARTIAL = 3


@dataclass(frozen=True)
class SyntheticData:
    """A config's synthetic dataset: data.synthesize's arguments."""

    type: ClassVar[str] = "synthetic"
    n: int = 600
    p: int = 12
    classes: int = 3
    separation: float = 4.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)

    def load(self, base_dir):
        return data.synthesize(n=self.n, p=self.p, n_classes=self.classes,
                               separation=self.separation, seed=self.seed)


@dataclass(frozen=True)
class CsvData:
    """A config's prepared dataset CSV; path is relative to base_dir."""

    type: ClassVar[str] = "csv"
    path: str

    def __post_init__(self):
        check_fields(self)

    def load(self, base_dir):
        return data.read_dataset_csv(os.path.join(base_dir, self.path))


DATASETS = {cls.type: cls for cls in (SyntheticData, CsvData)}


def load_config(path):
    """Parse a config JSON into (SearchConfig, dataset spec or None).

    Keys and defaults are the fields of SearchConfig, EvalConfig ("eval")
    and SearchSpace ("space"), and those of the dataset class that the
    dataset's "type" names in DATASETS. A top-level "max_layers" caps
    layer growth: it fills space.max_layers when the space omits it,
    lowers it when smaller, and may not exceed it.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    dataset = raw.pop("dataset", None)
    max_layers = raw.pop("max_layers", None)

    space_raw = raw.get("space", {})
    space = build(SearchSpace, space_raw, "space")
    if max_layers is not None:
        capped = build(SearchSpace, dict(space_raw, max_layers=max_layers),
                       "space")
        if "max_layers" in space_raw and capped.max_layers > space.max_layers:
            # layer growth would run out of genome capacity in every cell
            raise ConfigError(
                f"max_layers {max_layers} exceeds space.max_layers "
                f"{space.max_layers}")
        space = capped
    raw["space"] = space
    raw["eval"] = build(EvalConfig, raw.get("eval", {}), "eval")
    cfg = build(driver.SearchConfig, raw, "config")

    if dataset is not None:
        if not isinstance(dataset, dict):
            raise ConfigError("dataset must be a JSON object")
        kind = dataset.pop("type", None)
        if not isinstance(kind, str) or kind not in DATASETS:
            raise ConfigError(f"unknown dataset type {kind!r}")
        dataset = build(DATASETS[kind], dataset, f"{kind} dataset")
    return cfg, dataset


def load_dataset(spec, base_dir="."):
    """Load the dataset that a spec from load_config names; a csv path
    is relative to base_dir."""
    if spec is None:
        raise ConfigError("config has no 'dataset' entry")
    return spec.load(base_dir)


def cmd_prepare(args):
    with open(args.schema) as fh:
        schema = data.DataSchema.from_dict(json.load(fh))
    with open(args.input, newline="") as fh:
        ds = data.ingest(fh, schema)
    os.makedirs(args.output, exist_ok=True)
    out_csv = os.path.join(args.output, "prepared.csv")
    data.write_dataset_csv(ds, out_csv)
    histogram = {name: int(np.count_nonzero(ds.y == i))
                 for i, name in enumerate(data.CLASS_NAMES)}
    report.write_json(os.path.join(args.output, "label_histogram.json"),
                      histogram)
    if ds.n == 0:
        print("warning: no labeled pairs survived preprocessing",
              file=sys.stderr)
    print(f"wrote {ds.n} rows to {out_csv}; labels {histogram}")
    return EXIT_OK


def cmd_inject_missing(args):
    ds = data.read_dataset_csv(args.input)
    masked = data.inject_missing(ds, args.rate, args.seed)
    os.makedirs(args.out, exist_ok=True)
    masked_csv = os.path.join(args.out, "masked.csv")
    data.write_dataset_csv(masked, masked_csv)
    removed = np.count_nonzero(ds.M) - np.count_nonzero(masked.M)
    print(f"masked {removed} of {masked.M.size} entries -> {masked_csv}")
    return EXIT_OK


def cmd_search(args):
    if not (args.data or args.config):
        raise ConfigError("search needs --data or a --config with a dataset")
    if args.config:
        cfg, dataset_spec = load_config(args.config)
    else:
        cfg, dataset_spec = driver.SearchConfig(), None
    algorithm = canonical_name(args.algorithm)
    if args.data:
        ds = data.read_dataset_csv(args.data)
    else:
        ds = load_dataset(dataset_spec,
                          base_dir=os.path.dirname(args.config) or ".")
    record = driver.layer_growth_search(
        algorithm, split_folds(ds, cfg.eval), cfg,
        seed=derive_seed(cfg.master_seed, "search", algorithm),
        deterministic=args.deterministic)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "run.json")
    report.write_json(out_path, record.to_dict())
    print(f"{algorithm}: fitness={record.fitness:.2f} "
          f"accuracy={record.accuracy:.2f} "
          f"architecture={record.architecture['hidden_layer_sizes']} "
          f"solver={record.architecture['solver_name']} -> {out_path}")
    return EXIT_OK


def cmd_benchmark(args):
    cfg, dataset_spec = load_config(args.config)
    ds = load_dataset(dataset_spec,
                      base_dir=os.path.dirname(args.config) or ".")
    results_path = os.path.join(args.out, "results.jsonl")

    def progress(record):
        status = "FAILED" if record.error else f"acc={record.accuracy:.2f}"
        print(f"  {record.algorithm} rate={record.missing_rate} "
              f"repeat={record.repeat}: {status}")

    records = driver.run_benchmark(
        ds, cfg, out_path=results_path,
        deterministic=args.deterministic,
        progress=None if args.quiet else progress,
        jobs=args.jobs)

    failures = [
        {"algorithm": r.algorithm, "missing_rate": r.missing_rate,
         "repeat": r.repeat, "error": r.error}
        for r in records if r.error
    ]
    manifest = driver.config_manifest(cfg, deterministic=args.deterministic)
    manifest["dataset"] = {"type": dataset_spec.type, **asdict(dataset_spec)}
    manifest["records"] = len(records)
    manifest["failures"] = failures
    report.write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"{len(records)} records -> {results_path} "
          f"({len(failures)} failures)")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_stats(args):
    if not 0 < args.alpha < 1:  # false for NaN too
        raise ConfigError(f"alpha must be in (0, 1), got {args.alpha}")
    comparison = report.compare(driver.load_records(args.results),
                                args.alpha)
    os.makedirs(args.out, exist_ok=True)
    for name, (header, rows) in comparison.tables().items():
        report.write_csv(os.path.join(args.out, name), header, rows)
    fried = comparison.friedman
    report.write_json(os.path.join(args.out, "friedman.json"), fried)
    print(f"stats written to {args.out} "
          f"(chi2={fried['chi2']:.3f}, p={fried['p_value']:.3g})")
    return EXIT_OK


def cmd_report(args):
    records = driver.load_records(args.results)
    os.makedirs(args.out, exist_ok=True)
    tables = {f"architectures_rate_{rate:g}.csv": rows for rate, rows
              in report.best_architectures(records).items()}
    written = []
    for name, rows in (tables or {"architectures.csv": []}).items():
        path = os.path.join(args.out, name)
        report.write_csv(path, report.ARCHITECTURE_HEADER, rows)
        written.append(path)
    svg_path = os.path.join(args.out, "accuracy_by_algorithm.svg")
    with open(svg_path, "w") as fh:
        fh.write(report.accuracy_bar_chart(records))
        fh.write("\n")
    written.append(svg_path)
    print("report written: " + ", ".join(written))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evomlp",
        description="metaheuristic architecture search for masked-input "
                    "energy classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare",
                       help="ingest a raw battery trace into a labeled CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("inject-missing",
                       help="blank out a fraction of a dataset CSV's "
                            "entries, drawn among its observed ones")
    p.add_argument("--input", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inject_missing)

    p = sub.add_parser("search",
                       help="one layer-growth search with one algorithm")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--data")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("benchmark",
                       help="full algorithms x rates x repeats grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for grid cells")
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("stats",
                       help="nonparametric comparison of a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report",
                       help="architecture tables and accuracy chart")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError, the data errors and JSONDecodeError are ValueErrors;
        # a missing file or a directory in place of one is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
