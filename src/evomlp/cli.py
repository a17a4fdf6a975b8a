"""Command-line surface: prepare, inject-missing, search, benchmark,
stats, report.

Exit codes: 0 success, 2 input/config error, 3 benchmark finished with
failed grid cells. All state is explicit (config file + flags); under
--deterministic every output byte is reproducible.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import data, driver, report, stats
from .genome import SearchSpace
from .objective import EvalConfig
from .pbmh import ConfigError, canonical_name
from .seeding import derive_seed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARTIAL = 3

_DATASET_KEYS = {"type", "n", "p", "classes", "separation", "seed",
                 "path"}


def _check_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {context} keys: {', '.join(sorted(unknown))}")


def _build(cls, raw, context):
    """cls(**raw), with raw's keys checked against the dataclass fields;
    the dataclass supplies every default."""
    _check_keys(raw, {f.name for f in fields(cls)}, context)
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"invalid {context} value: {exc}") from None


def load_config(path):
    """Parse a config JSON into (SearchConfig, dataset_spec).

    Keys and defaults are the fields of SearchConfig, EvalConfig ("eval")
    and SearchSpace ("space"). A top-level "max_layers" caps layer growth:
    it fills space.max_layers when the space omits it, lowers it when
    smaller, and may not exceed it.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    dataset_spec = raw.pop("dataset", None)
    max_layers = raw.pop("max_layers", None)

    space_raw = raw.get("space", {})
    space = _build(SearchSpace, space_raw, "space")
    if max_layers is not None:
        capped = _build(SearchSpace, dict(space_raw, max_layers=max_layers),
                        "space")
        if "max_layers" in space_raw and capped.max_layers > space.max_layers:
            # layer growth would run out of genome capacity in every cell
            raise ConfigError(
                f"max_layers {max_layers} exceeds space.max_layers "
                f"{space.max_layers}")
        space = capped
    raw["space"] = space
    raw["eval"] = _build(EvalConfig, raw.get("eval", {}), "eval")
    for key in ("algorithms", "missing_rates"):
        if key in raw and not isinstance(raw[key], list):
            raise ConfigError(f"{key} must be a JSON list")
    if "algorithms" in raw:
        raw["algorithms"] = tuple(canonical_name(a) for a in raw["algorithms"])
    if "missing_rates" in raw:
        raw["missing_rates"] = tuple(raw["missing_rates"])
    cfg = _build(driver.SearchConfig, raw, "config")

    if dataset_spec is not None:
        _check_keys(dataset_spec, _DATASET_KEYS, "dataset")
    return cfg, dataset_spec


def load_dataset(spec, base_dir="."):
    if spec is None:
        raise ConfigError("config has no 'dataset' entry")
    kind = spec.get("type")
    if kind == "synthetic":
        n, p, classes, seed = (spec.get(key, default) for key, default in (
            ("n", 600), ("p", 12), ("classes", 3), ("seed", 0)))
        separation = spec.get("separation", 4.0)
        if (any(type(v) is not int for v in (n, p, classes, seed))
                or type(separation) not in (int, float)):
            raise ConfigError("dataset n, p, classes and seed must be "
                              "integers and separation a number")
        return data.synthesize(n=n, p=p, n_classes=classes,
                               separation=separation, seed=seed)
    if kind == "csv":
        if not isinstance(spec.get("path"), str):
            raise ConfigError("a csv dataset needs a 'path' string")
        return data.read_dataset_csv(os.path.join(base_dir, spec["path"]))
    raise ConfigError(f"unknown dataset type {kind!r}")


def cmd_prepare(args):
    with open(args.schema) as fh:
        schema = data.DataSchema.from_dict(json.load(fh))
    os.makedirs(args.output, exist_ok=True)
    with open(args.input, newline="") as fh:
        ds = data.ingest(fh, schema)
    out_csv = os.path.join(args.output, "prepared.csv")
    data.write_dataset_csv(ds, out_csv)
    histogram = {name: int(np.count_nonzero(ds.y == i))
                 for i, name in enumerate(data.CLASS_NAMES)}
    with open(os.path.join(args.output, "label_histogram.json"), "w") as fh:
        json.dump(histogram, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    mask_csv = os.path.join(args.out, "mask.csv")
    data.write_dataset_csv(
        data.LabeledDataset(X=masked.X, y=masked.y,
                            feature_names=masked.feature_names),
        masked_csv)
    data.write_mask_csv(masked, mask_csv)
    removed = int(masked.M.size - masked.M.sum())
    print(f"masked {removed} of {masked.M.size} entries "
          f"-> {masked_csv}, {mask_csv}")
    return EXIT_OK


def cmd_search(args):
    if args.config:
        cfg, dataset_spec = load_config(args.config)
    else:
        cfg, dataset_spec = driver.SearchConfig(), None
    algorithm = canonical_name(args.algorithm)
    if args.data:
        if args.mask:
            ds = data.read_masked_csv(args.data, args.mask)
        else:
            ds = data.as_masked(data.read_dataset_csv(args.data))
    else:
        ds = data.as_masked(load_dataset(dataset_spec))
    record = driver.layer_growth_search(
        algorithm, ds, cfg,
        seed=derive_seed(cfg.master_seed, "search", algorithm),
        deterministic=args.deterministic)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "run.json")
    with open(out_path, "w") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{algorithm}: fitness={record.fitness:.2f} "
          f"accuracy={record.accuracy:.2f} "
          f"architecture={record.architecture['hidden_layer_sizes']} "
          f"solver={record.architecture['solver_name']} -> {out_path}")
    return EXIT_OK


def cmd_benchmark(args):
    cfg, dataset_spec = load_config(args.config)
    ds = load_dataset(dataset_spec,
                      base_dir=os.path.dirname(args.config) or ".")
    os.makedirs(args.out, exist_ok=True)
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
    manifest["dataset"] = dataset_spec
    manifest["records"] = len(records)
    manifest["failures"] = failures
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} records -> {results_path} "
          f"({len(failures)} failures)")
    return EXIT_PARTIAL if failures else EXIT_OK


def _paired_scores(records, algorithms):
    """Per-algorithm accuracy vectors paired over the (rate, repeat)
    cells that every algorithm completed."""
    table = {}
    for r in records:
        if not r.error:
            table[(r.algorithm, r.missing_rate, r.repeat)] = r.accuracy
    keys = None
    for alg in algorithms:
        cells = {(rate, rep) for (a, rate, rep) in table if a == alg}
        keys = cells if keys is None else keys & cells
    keys = sorted(keys or [])
    return [np.array([table[(alg, rate, rep)] for rate, rep in keys])
            for alg in algorithms]


def cmd_stats(args):
    records = driver.load_records(args.results)
    clean, _ = report.split_records(records)
    algorithms = report.algorithms_in(clean)
    if len(algorithms) < 2:
        print("need results for at least 2 algorithms", file=sys.stderr)
        return EXIT_INPUT
    rates = report.rates_in(clean)
    os.makedirs(args.out, exist_ok=True)

    rows = report.summary_rows(clean)
    report.write_summary_csv(os.path.join(args.out, "summary.csv"), rows)

    # Friedman: blocks = missing-rate conditions, cells = mean accuracy
    mean_acc = {(r["algorithm"], r["missing_rate"]): r["accuracy_mean"]
                for r in rows}
    matrix = [[mean_acc[(alg, rate)] for alg in algorithms]
              for rate in rates]
    fried = stats.friedman(matrix, alpha=args.alpha)
    fried["treatments"] = algorithms
    fried["blocks"] = rates
    stats.write_friedman_json(os.path.join(args.out, "friedman.json"),
                              fried)

    vectors = _paired_scores(clean, algorithms)
    verdicts = stats.pairwise_verdicts(vectors, alpha=args.alpha)
    stats.write_wilcoxon_matrix_csv(
        os.path.join(args.out, "wilcoxon_matrix.csv"), algorithms,
        verdicts)
    stats.write_win_tie_loss_csv(
        os.path.join(args.out, "win_tie_loss.csv"), algorithms,
        stats.win_tie_loss(verdicts))

    stability_values = []
    if len(rates) >= 2:
        for alg in algorithms:
            stability_values.append(stats.stability(
                [mean_acc[(alg, rate)] for rate in rates]))
    stats.write_stability_csv(os.path.join(args.out, "stability.csv"),
                              algorithms if stability_values else [],
                              stability_values)
    print(f"stats written to {args.out} "
          f"(chi2={fried['chi2']:.3f}, p={fried['p_value']:.3g})")
    return EXIT_OK


def cmd_report(args):
    records = driver.load_records(args.results)
    os.makedirs(args.out, exist_ok=True)
    tables = report.best_architectures(records)
    written = []
    for rate, rows in tables.items():
        path = os.path.join(args.out, f"architectures_rate_{rate:g}.csv")
        report.write_architecture_csv(path, rows)
        written.append(path)
    if not tables:
        path = os.path.join(args.out, "architectures.csv")
        report.write_architecture_csv(path, [])
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
                       help="zero out a fraction of entries with a mask")
    p.add_argument("--input", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inject_missing)

    p = sub.add_parser("search",
                       help="one layer-growth search with one algorithm")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--data")
    p.add_argument("--mask")
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
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError, the data errors and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
