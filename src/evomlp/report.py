"""Aggregation of benchmark records into tables and a chart.

Produces the per-condition summary (mean/std of accuracy and F-measure
over repeats), the comparison of the algorithms (`compare`: Friedman
ranks, pairwise Wilcoxon verdicts, win/tie/loss and stability), the
found-architecture tables, and a static SVG bar chart of mean accuracy
per algorithm. Every table is written by `write_csv` and every JSON
document by `write_json`.
"""

import csv
import json
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from . import stats
from .pbmh import ConfigError


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def group_scores(records):
    """{(algorithm, rate): {"accuracy": [...], "f_measure": [...]}}
    over repeats, error records excluded."""
    groups = defaultdict(lambda: {"accuracy": [], "f_measure": []})
    for r in records:
        if r.error:
            continue
        cell = groups[(r.algorithm, r.missing_rate)]
        cell["accuracy"].append(r.accuracy)
        cell["f_measure"].append(r.f_measure)
    return dict(groups)


def algorithms_in(records):
    return list(dict.fromkeys(r.algorithm for r in records))


def rates_in(records):
    return sorted({r.missing_rate for r in records})


def summary_rows(records):
    """Paper-shaped summary: one row per (rate, algorithm) with
    Mean/Std columns for both metrics."""
    groups = group_scores(records)
    rows = []
    for rate in rates_in(records):
        for alg in algorithms_in(records):
            cell = groups.get((alg, rate))
            if not cell:
                continue
            acc = np.array(cell["accuracy"])
            f1 = np.array(cell["f_measure"])
            rows.append({
                "missing_rate": rate,
                "algorithm": alg,
                "accuracy_mean": float(acc.mean()),
                "accuracy_std": float(acc.std()),
                "f_measure_mean": float(f1.mean()),
                "f_measure_std": float(f1.std()),
                "repeats": acc.size,
            })
    return rows


class Comparison(NamedTuple):
    """The comparison of the algorithms in a set of records; see
    `compare`. Lists follow `algorithms` order."""

    algorithms: list
    summary: list  # summary_rows of the clean records
    friedman: dict  # stats.friedman, with its treatments and blocks
    verdicts: list  # stats.pairwise_verdicts
    wins_ties_losses: list
    stability: list  # empty with one rate

    def tables(self):
        """{file name: (header, rows)} of the CSV tables, each cell
        formatted as written."""
        names = self.algorithms
        return {
            "summary.csv": (
                ["missing_rate", "algorithm", "accuracy_mean",
                 "accuracy_std", "f_measure_mean", "f_measure_std",
                 "repeats"],
                [[row["missing_rate"], row["algorithm"],
                  f"{row['accuracy_mean']:.2f}", f"{row['accuracy_std']:.2f}",
                  f"{row['f_measure_mean']:.2f}",
                  f"{row['f_measure_std']:.2f}", row["repeats"]]
                 for row in self.summary]),
            "wilcoxon_matrix.csv": (
                ["algorithm", *names],
                [[name, *(stats.VERDICT_SYMBOL[cell] for cell in row)]
                 for name, row in zip(names, self.verdicts)]),
            "win_tie_loss.csv": (
                ["algorithm", "wins", "ties", "losses"],
                [[name, *wtl]
                 for name, wtl in zip(names, self.wins_ties_losses)]),
            "stability.csv": (
                ["algorithm", "stability_std"],
                [[name, repr(value)]
                 for name, value in zip(names, self.stability)]),
        }


def compare(records, alpha):
    """Compare the algorithms of a set of records, error records left out.

    Friedman ranks them over the missing rates at which every algorithm
    has a clean record (blocks: rates, cells: mean accuracy), Wilcoxon
    compares each pair over the (rate, repeat) cells that every algorithm
    completed, and stability is each algorithm's spread of mean accuracy
    over those rates, given for two rates or more. ConfigError when fewer
    than two algorithms or no such rate remain.
    """
    clean = [r for r in records if not r.error]
    algorithms = algorithms_in(clean)
    if len(algorithms) < 2:
        raise ConfigError("need results for at least 2 algorithms")
    summary = summary_rows(clean)
    mean_acc = {(row["algorithm"], row["missing_rate"]): row["accuracy_mean"]
                for row in summary}
    rates = [rate for rate in rates_in(clean)
             if all((alg, rate) in mean_acc for alg in algorithms)]
    if not rates:
        raise ConfigError("no missing rate has results for every algorithm")
    by_rate = [[mean_acc[(alg, rate)] for alg in algorithms]
               for rate in rates]
    accuracy = {(r.algorithm, r.missing_rate, r.repeat): r.accuracy
                for r in clean}
    cells = sorted(set.intersection(*(
        {(rate, rep) for a, rate, rep in accuracy if a == alg}
        for alg in algorithms)))
    verdicts = stats.pairwise_verdicts(
        [[accuracy[(alg, *cell)] for cell in cells] for alg in algorithms],
        alpha)
    return Comparison(
        algorithms, summary,
        dict(stats.friedman(by_rate, alpha), treatments=algorithms,
             blocks=rates),
        verdicts, stats.win_tie_loss(verdicts),
        [stats.stability(scores) for scores in zip(*by_rate)]
        if len(rates) >= 2 else [])


ARCHITECTURE_HEADER = ["algorithm", "structure", "learning_rate", "solver"]


def best_architectures(records):
    """{rate: [(algorithm, structure, learning_rate, solver_name)]} using
    each cell's lowest-fitness repeat, formatted as written under
    ARCHITECTURE_HEADER."""
    best = {}
    for r in records:
        if r.error:
            continue
        key = (r.algorithm, r.missing_rate)
        if key not in best or r.fitness < best[key].fitness:
            best[key] = r
    tables = defaultdict(list)
    for (alg, rate), r in sorted(best.items(),
                                 key=lambda kv: (kv[0][1], kv[0][0])):
        arch = r.architecture
        lr = arch.get("learning_rate")
        tables[rate].append((
            alg,
            str(arch.get("hidden_layer_sizes", [])),
            "" if lr is None else f"{lr:.4f}",
            arch.get("solver_name"),
        ))
    return dict(tables)


def _svg_escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def accuracy_bar_chart(records):
    """Static SVG: one bar per algorithm, height = mean accuracy over
    every clean record of that algorithm."""
    algs = algorithms_in(records)
    means = []
    for alg in algs:
        accs = [r.accuracy for r in records
                if r.algorithm == alg and not r.error]
        means.append(float(np.mean(accs)) if accs else 0.0)

    width, height, margin = 640, 360, 50
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    n = max(len(algs), 1)
    slot = plot_w / n
    bar_w = slot * 0.6

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{height - margin}" '
        f'x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin - 40}" y="{margin - 10}" font-size="12">'
        f'accuracy %</text>',
    ]
    for tick in (0, 25, 50, 75, 100):
        y = height - margin - plot_h * tick / 100.0
        parts.append(f'<text x="{margin - 35}" y="{y + 4}" '
                     f'font-size="10">{tick}</text>')
        parts.append(f'<line x1="{margin - 4}" y1="{y}" x2="{margin}" '
                     f'y2="{y}" stroke="black"/>')
    for i, (alg, mean) in enumerate(zip(algs, means)):
        x = margin + i * slot + (slot - bar_w) / 2
        bar_h = plot_h * max(0.0, min(mean, 100.0)) / 100.0
        y = height - margin - bar_h
        parts.append(
            f'<rect class="bar" x="{x:.1f}" y="{y:.1f}" '
            f'width="{bar_w:.1f}" height="{bar_h:.1f}" fill="#4878a8"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - margin + 14}" '
            f'font-size="10" text-anchor="middle">'
            f'{_svg_escape(alg)}</text>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" '
            f'font-size="10" text-anchor="middle">{mean:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
