"""Aggregation of benchmark records into tables and a chart.

The clean (non-error) records are grouped once, by `cells`, into one
cell per (algorithm, missing rate): rates ascending, then algorithms in
order of first appearance among the clean records, each cell's records
in file order. That map feeds the per-condition summary (mean/std of
accuracy and F-measure over repeats), the comparison of the algorithms
(`compare`: Friedman ranks, pairwise Wilcoxon verdicts, win/tie/loss and
stability) and the found-architecture tables. A static SVG bar chart
shows mean accuracy per algorithm. Every table is written by
`write_csv` and every JSON document by `write_json`.
"""

import csv
import json
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


def algorithms_in(records):
    """The algorithms of the clean records, in order of first appearance."""
    return list(dict.fromkeys(r.algorithm for r in records if not r.error))


def cells(records):
    """{(algorithm, rate): [records]} of the clean records, in output
    order: rates ascending, then algorithms_in order; each cell keeps its
    records in file order."""
    rank = {alg: i for i, alg in enumerate(algorithms_in(records))}
    table = {}
    for r in sorted((r for r in records if not r.error),
                    key=lambda r: (r.missing_rate, rank[r.algorithm])):
        table.setdefault((r.algorithm, r.missing_rate), []).append(r)
    return table


SUMMARY_HEADER = ["missing_rate", "algorithm", "accuracy_mean",
                  "accuracy_std", "f_measure_mean", "f_measure_std",
                  "repeats"]


class Comparison(NamedTuple):
    """The comparison of the algorithms in a set of records; see
    `compare`. Lists follow `algorithms` order."""

    algorithms: list
    summary: list  # a row per cell, unformatted, under SUMMARY_HEADER
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
                SUMMARY_HEADER,
                [[rate, alg, *(f"{v:.2f}" for v in scores), repeats]
                 for rate, alg, *scores, repeats in self.summary]),
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
    algorithms = algorithms_in(records)
    if len(algorithms) < 2:
        raise ConfigError("need results for at least 2 algorithms")
    table = cells(records)
    accuracy = {key: np.array([r.accuracy for r in cell])
                for key, cell in table.items()}
    summary = []
    for (alg, rate), cell in table.items():
        f_measure = np.array([r.f_measure for r in cell])
        summary.append([rate, alg, float(accuracy[alg, rate].mean()),
                        float(accuracy[alg, rate].std()),
                        float(f_measure.mean()), float(f_measure.std()),
                        len(cell)])
    rates = [rate for rate in dict.fromkeys(rate for _, rate in table)
             if all((alg, rate) in table for alg in algorithms)]
    if not rates:
        raise ConfigError("no missing rate has results for every algorithm")
    by_rate = [[float(accuracy[alg, rate].mean()) for alg in algorithms]
               for rate in rates]
    by_repeat = {key: {r.repeat: r.accuracy for r in cell}
                 for key, cell in table.items()}
    paired = [(rate, rep) for rate in rates for rep in sorted(set.intersection(
        *(set(by_repeat[alg, rate]) for alg in algorithms)))]
    verdicts = stats.pairwise_verdicts(
        [[by_repeat[alg, rate][rep] for rate, rep in paired]
         for alg in algorithms], alpha)
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
    each cell's lowest-fitness repeat (the first in the file on a tie),
    in `cells` order, formatted as written under ARCHITECTURE_HEADER."""
    tables = {}
    for (alg, rate), cell in cells(records).items():
        arch = min(cell, key=lambda r: r.fitness).architecture
        lr = arch.get("learning_rate")
        tables.setdefault(rate, []).append((
            alg,
            str(arch.get("hidden_layer_sizes", [])),
            "" if lr is None else f"{lr:.4f}",
            arch.get("solver_name"),
        ))
    return tables


def _svg_escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def accuracy_bar_chart(records):
    """Static SVG: one bar per algorithm of the records, height = mean
    accuracy over its clean records in file order; an algorithm with no
    clean record draws no bar and is labelled n/a."""
    algs = list(dict.fromkeys(r.algorithm for r in records))
    means = []
    for alg in algs:
        accs = [r.accuracy for r in records
                if r.algorithm == alg and not r.error]
        means.append(float(np.mean(accs)) if accs else None)

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
        y = height - margin
        label = "n/a"
        if mean is not None:
            bar_h = plot_h * max(0.0, min(mean, 100.0)) / 100.0
            y -= bar_h
            label = f"{mean:.1f}"
            parts.append(
                f'<rect class="bar" x="{x:.1f}" y="{y:.1f}" '
                f'width="{bar_w:.1f}" height="{bar_h:.1f}" fill="#4878a8"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - margin + 14}" '
            f'font-size="10" text-anchor="middle">'
            f'{_svg_escape(alg)}</text>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" '
            f'font-size="10" text-anchor="middle">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
