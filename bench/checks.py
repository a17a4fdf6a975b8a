"""Checks applied to every round's outputs, and independent oracles.

Each check returns a list of problems (empty when the output is right)
and needs no stored copy of an earlier output: the run invariants follow
from the config, the oracles recompute from the round's own inputs and
results with code that does not come from evomlp (plain NumPy, SciPy,
the trace generator's own bookkeeping).
"""

import csv
import hashlib
import json
import math
import os
from collections import Counter

import numpy as np

SYMBOL = {"superior": "+", "inferior": "-", "equivalent": "="}
MIN_PAIRS = 5
EXACT_UP_TO = 20


def load_results(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def record_digest(records):
    """Hash of every record's deterministic fields (wall_time dropped):
    it changes exactly when the search path or a score changes."""
    h = hashlib.sha256()
    for r in records:
        fields = {k: v for k, v in r.items() if k != "wall_time"}
        h.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    return h.hexdigest()[:16]


def check_records(records, config, consumed):
    """Run invariants of one grid's results.

    consumed maps solver id -> the hyperparameter names that solver
    reads; the chosen solver's active_params must be exactly that set.
    """
    problems = []
    expected = Counter((a, float(rate), rep)
                       for rate in config["missing_rates"]
                       for a in config["algorithms"]
                       for rep in range(config["repeats"]))
    got = Counter((r["algorithm"], float(r["missing_rate"]), r["repeat"])
                  for r in records)
    if got != expected:
        problems.append(f"grid cells differ from the config: missing "
                        f"{sorted(expected - got)}, extra "
                        f"{sorted(got - expected)}")
    space = config["space"]
    layers, budget = config["max_layers"], config["stage_budget"]
    for r in records:
        cell = f"{r['algorithm']} rate={r['missing_rate']} " \
               f"repeat={r['repeat']}"
        if r.get("error"):
            problems.append(f"{cell}: failed: {r['error']}")
            continue
        if r["n_evaluations"] != layers * budget:
            problems.append(f"{cell}: {r['n_evaluations']} evaluations, "
                            f"expected {layers} x {budget}")
        traces = r["stage_traces"]
        if len(traces) != layers or any(len(t) != budget for t in traces):
            problems.append(f"{cell}: stage traces are not {layers} "
                            f"stages of {budget}")
        elif r["fitness"] != min(min(t) for t in traces):
            problems.append(f"{cell}: fitness {r['fitness']} is not the "
                            f"minimum of its stage traces")
        if r["accuracy"] != 100.0 - r["fitness"]:
            problems.append(f"{cell}: accuracy {r['accuracy']} != 100 - "
                            f"fitness {r['fitness']}")
        if not 0.0 <= r["f_measure"] <= 100.0:
            problems.append(f"{cell}: f_measure {r['f_measure']} outside "
                            f"[0, 100]")
        arch = r["architecture"]
        sizes = arch["hidden_layer_sizes"]
        if not 1 <= len(sizes) <= min(layers, space["max_layers"]):
            problems.append(f"{cell}: {len(sizes)} hidden layers outside "
                            f"[1, {layers}]")
        if any(not isinstance(s, int)
               or not space["neuron_min"] <= s <= space["neuron_max"]
               for s in sizes):
            problems.append(f"{cell}: layer sizes {sizes} outside "
                            f"[{space['neuron_min']}, "
                            f"{space['neuron_max']}]")
        sid = arch["solver_id"]
        if sid not in consumed:
            problems.append(f"{cell}: unknown solver id {sid}")
        elif set(arch["active_params"]) != set(consumed[sid]):
            problems.append(f"{cell}: active_params "
                            f"{sorted(arch['active_params'])} are not "
                            f"solver {sid}'s set {sorted(consumed[sid])}")
        if not (r.get("wall_time") or 0.0) > 0.0:
            problems.append(f"{cell}: no wall_time in a timed run")
    return problems


def mean_accuracy_by_rate(records):
    by_rate = {}
    for r in records:
        if not r.get("error"):
            by_rate.setdefault(float(r["missing_rate"]), []).append(
                r["accuracy"])
    return {rate: float(np.mean(v)) for rate, v in sorted(by_rate.items())}


def ncm_accuracy(X, y, folds, seed=0):
    """Cross-validated accuracy (percent) of a nearest-class-mean
    classifier on features standardized with training statistics."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.size, dtype=int)
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        fold_of[idx] = np.arange(idx.size) % folds
    scores = []
    for f in range(folds):
        train, test = fold_of != f, fold_of == f
        mu, sd = X[train].mean(axis=0), X[train].std(axis=0)
        sd[sd == 0] = 1.0
        Xtr, Xte = (X[train] - mu) / sd, (X[test] - mu) / sd
        classes = np.unique(y[train])
        means = np.array([Xtr[y[train] == c].mean(axis=0) for c in classes])
        dist = ((Xte[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        scores.append(np.mean(classes[dist.argmin(axis=1)] == y[test]))
    return 100.0 * float(np.mean(scores))


def check_accuracy(records, floor):
    """Rate-0 accuracy reaches the floor and masking costs accuracy."""
    problems = []
    best_clean = max((r["accuracy"] for r in records
                      if not r.get("error") and r["missing_rate"] == 0),
                     default=None)
    if best_clean is None or best_clean < floor:
        problems.append(f"best rate-0 accuracy {best_clean} below the "
                        f"nearest-class-mean floor {floor:.2f}")
    means = mean_accuracy_by_rate(records)
    if len(means) >= 2:
        top = max(means)
        if not means[top] < means[0.0]:
            problems.append(f"mean accuracy at rate {top} "
                            f"({means[top]:.2f}) is not below rate 0 "
                            f"({means[0.0]:.2f})")
    return problems


def check_prepare(prep_dir, truth):
    """prepare's row count and label histogram against the generator's
    own count of surviving pairs."""
    with open(os.path.join(prep_dir, "label_histogram.json")) as fh:
        histogram = json.load(fh)
    with open(os.path.join(prep_dir, "prepared.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    problems = []
    if histogram != truth:
        problems.append(f"label histogram {histogram} != generator "
                        f"truth {truth}")
    if rows != sum(truth.values()):
        problems.append(f"prepared.csv has {rows} rows, generator made "
                        f"{sum(truth.values())} pairs")
    return problems


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def expected_wilcoxon(a, b, alpha):
    """(p, verdict) of the paired two-sided signed-rank test, by SciPy:
    zero differences dropped, exact sign enumeration up to 20 pairs,
    tie-corrected normal approximation beyond, too few pairs is a tie."""
    from scipy import stats as sps

    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0]
    if d.size < MIN_PAIRS:
        return 1.0, "equivalent"
    if d.size <= EXACT_UP_TO:
        method = sps.PermutationMethod(n_resamples=2 ** d.size)
    else:
        method = "approx"
    p = float(sps.wilcoxon(d, correction=False, method=method).pvalue)
    verdict = "equivalent"
    if p < alpha and np.median(d) != 0:
        verdict = "superior" if np.median(d) > 0 else "inferior"
    return p, verdict


def check_stats(records, stats_dir, alpha=0.05):
    """Friedman chi2, ranks and p, and every pairwise Wilcoxon p-value
    and verdict, recomputed from the results with SciPy."""
    from scipy import stats as sps

    from evomlp import stats as program_stats

    problems = []
    clean = [r for r in records if not r.get("error")]
    algorithms = list(dict.fromkeys(r["algorithm"] for r in clean))
    rates = sorted({r["missing_rate"] for r in clean})
    matrix = np.array([[np.mean([r["accuracy"] for r in clean
                                 if r["algorithm"] == alg
                                 and r["missing_rate"] == rate])
                        for alg in algorithms] for rate in rates])
    n, k = matrix.shape
    ranks = np.vstack([sps.rankdata(-row) for row in matrix])
    avg = ranks.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * float(np.sum(avg ** 2)) \
        - 3.0 * n * (k + 1)
    p = float(sps.chi2.sf(chi2, k - 1))
    if k >= 3 and n >= 2:
        # SciPy's statistic carries the tie correction the plain one omits
        ties = sum(float(np.sum(c ** 3 - c)) for c in
                   (np.unique(row, return_counts=True)[1] for row in matrix))
        correction = 1.0 - ties / (n * k * (k * k - 1))
        if correction > 0:
            scipy_chi2 = sps.friedmanchisquare(*matrix.T).statistic
            if not math.isclose(scipy_chi2 * correction, chi2,
                                rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"own Friedman chi2 {chi2} disagrees with "
                                f"scipy's {scipy_chi2} x {correction}")
    with open(os.path.join(stats_dir, "friedman.json")) as fh:
        fried = json.load(fh)
    if fried["treatments"] != algorithms or fried["blocks"] != rates:
        problems.append("friedman.json treatments/blocks differ from the "
                        "results")
    if not math.isclose(fried["chi2"], chi2, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"Friedman chi2 {fried['chi2']} != {chi2}")
    if not _close(fried["p_value"], p):
        problems.append(f"Friedman p {fried['p_value']} != {p}")
    if not all(_close(x, y) for x, y in zip(fried["average_ranks"], avg)):
        problems.append(f"Friedman ranks {fried['average_ranks']} != "
                        f"{avg.tolist()}")

    cells = sorted({(r["missing_rate"], r["repeat"]) for r in clean})
    score = {(r["algorithm"], r["missing_rate"], r["repeat"]): r["accuracy"]
             for r in clean}
    vectors = [np.array([score[(alg, rate, rep)] for rate, rep in cells])
               for alg in algorithms]
    with open(os.path.join(stats_dir, "wilcoxon_matrix.csv"),
              newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][1:] != algorithms:
        problems.append("wilcoxon_matrix.csv columns differ from the "
                        "results' algorithms")
        return problems
    for i in range(k):
        for j in range(i + 1, k):
            want_p, verdict = expected_wilcoxon(vectors[i], vectors[j],
                                                alpha)
            got_p = program_stats.wilcoxon_signed_rank(
                vectors[i], vectors[j], alpha).p_value
            pair = f"{algorithms[i]} vs {algorithms[j]}"
            if not _close(got_p, want_p):
                problems.append(f"Wilcoxon p {pair}: {got_p} != {want_p}")
            if rows[i + 1][j + 1] != SYMBOL[verdict]:
                problems.append(f"Wilcoxon verdict {pair}: "
                                f"{rows[i + 1][j + 1]!r} != "
                                f"{SYMBOL[verdict]!r}")
    return problems
