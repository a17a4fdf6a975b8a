"""Nonparametric comparison of the search algorithms.

Friedman ranks treatments within blocks (higher score = better = rank 1),
Wilcoxon signed-rank decides pairwise superiority at a significance
level, and stability is the spread of mean scores across missing-value
conditions. Friedman's chi-square tail is a finite sum at its integer
degrees of freedom, so the package needs no statistics dependency.
"""

import math
from dataclasses import dataclass

import numpy as np

SUPERIOR = "superior"
INFERIOR = "inferior"
EQUIVALENT = "equivalent"

# a verdict matrix cell as written; the diagonal is None
VERDICT_SYMBOL = {SUPERIOR: "+", INFERIOR: "-", EQUIVALENT: "=", None: ""}
_MIN_PAIRS = 5


@dataclass(frozen=True)
class TestVerdict:
    statistic: float
    p_value: float
    alpha: float
    verdict: str


def chi2_sf(x, df):
    """Upper-tail probability of the chi-square distribution at an
    integer df >= 1; 1 for x <= 0.

    A finite sum: for even df the Poisson sum
    e^(-x/2) * sum_{i < df/2} (x/2)^i / i!, for odd df
    erfc(sqrt(x/2)) + sqrt(2x/pi) * e^(-x/2)
    * sum_{k=1}^{(df-1)/2} x^(k-1) / (1 * 3 * ... * (2k-1)).
    """
    if x <= 0:
        return 1.0
    if df % 2:
        total = math.erfc(math.sqrt(x / 2.0))
        term = math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    else:
        total, term = 0.0, math.exp(-x / 2.0)
    # each term is the one before times x / 2, x / 4, ... for even df,
    # times x / 3, x / 5, ... for odd df
    for divisor in range(2 + df % 2, df + 2, 2):
        total += term
        term *= x / divisor
    return total


def _ranks_desc(row):
    """Average ranks with rank 1 for the highest value."""
    row = np.asarray(row, dtype=float)
    order = np.argsort(-row, kind="stable")
    ranks = np.empty(row.size)
    ranks[order] = np.arange(1, row.size + 1, dtype=float)
    for v in np.unique(row):
        tied = row == v
        if np.count_nonzero(tied) > 1:
            ranks[tied] = ranks[tied].mean()
    return ranks


def friedman(matrix, alpha=0.05):
    """Friedman test over a blocks x treatments score matrix.

    Returns chi2, its p-value from the chi-square upper tail with k-1
    degrees of freedom, the per-treatment average ranks, and the
    decision at alpha.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("score matrix must be 2-D (blocks x treatments)")
    n, k = m.shape
    if k < 2:
        raise ValueError("need at least 2 treatments")
    if n < 1:
        raise ValueError("need at least 1 block")
    ranks = np.vstack([_ranks_desc(row) for row in m])
    avg_ranks = ranks.mean(axis=0)
    # full ties can round the statistic just below zero
    chi2 = max(0.0, 12.0 * n / (k * (k + 1)) * float(np.sum(avg_ranks ** 2))
               - 3.0 * n * (k + 1))
    p = chi2_sf(chi2, k - 1)
    return {
        "chi2": chi2,
        "p_value": p,
        "average_ranks": avg_ranks.tolist(),
        "alpha": alpha,
        "significant": p < alpha,
    }


def _exact_min_rank_sum_p(ranks, w_obs):
    """P(min(W+, W-) <= w_obs) by exact enumeration over sign patterns.

    Ranks are doubled so tie-averaged .5 ranks become integers; the DP
    counts, for every achievable doubled W+, how many of the 2^n sign
    assignments reach it.
    """
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:counts.size - r]
        counts = counts + shifted
    w2 = int(round(2 * w_obs))
    sums = np.arange(total + 1)
    hit = np.minimum(sums, total - sums) <= w2
    return float(counts[hit].sum() / 2.0 ** len(doubled))


def wilcoxon_signed_rank(a, b, alpha=0.05):
    """Paired two-sided signed-rank test with a superiority verdict.

    Zero differences are dropped; fewer than 5 surviving pairs yields
    "equivalent" for lack of data. Exact p by sign enumeration up to
    n = 20, tie-corrected normal approximation beyond.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    d = a - b
    d = d[d != 0]
    n = d.size
    if n < _MIN_PAIRS:
        return TestVerdict(statistic=0.0, p_value=1.0, alpha=alpha,
                           verdict=EQUIVALENT)

    ranks = _ranks_desc(-np.abs(d))  # ascending |d| -> rank 1
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if n <= 20:
        p = _exact_min_rank_sum_p(ranks, w)
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
        z = (w - mean) / math.sqrt(var)
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))

    verdict = EQUIVALENT
    if p < alpha:
        med = float(np.median(d))
        if med > 0:
            verdict = SUPERIOR
        elif med < 0:
            verdict = INFERIOR
    return TestVerdict(statistic=w, p_value=p, alpha=alpha, verdict=verdict)


def _flip(verdict):
    if verdict == SUPERIOR:
        return INFERIOR
    if verdict == INFERIOR:
        return SUPERIOR
    return EQUIVALENT


def pairwise_verdicts(score_vectors, alpha=0.05):
    """k x k verdict matrix from per-treatment paired score vectors.

    Cell [i][j] says how treatment i compares to j; [j][i] is the exact
    mirror, so antisymmetry holds by construction. Diagonal is None.
    """
    k = len(score_vectors)
    matrix = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            v = wilcoxon_signed_rank(score_vectors[i], score_vectors[j],
                                     alpha)
            matrix[i][j] = v.verdict
            matrix[j][i] = _flip(v.verdict)
    return matrix


def win_tie_loss(verdict_matrix):
    """Per-row (wins, ties, losses); diagonal ignored."""
    k = len(verdict_matrix)
    for row in verdict_matrix:
        if len(row) != k:
            raise ValueError("verdict matrix must be square")
    out = []
    for i, row in enumerate(verdict_matrix):
        w = t = loss = 0
        for j, cell in enumerate(row):
            if i == j:
                continue
            if cell == SUPERIOR:
                w += 1
            elif cell == INFERIOR:
                loss += 1
            else:
                t += 1
        out.append((w, t, loss))
    return out


def stability(scores):
    """Population standard deviation of mean scores across conditions;
    lower means more resilient to missing-value changes."""
    scores = np.asarray(scores, dtype=float)
    if scores.size < 2:
        raise ValueError("need at least 2 per-condition scores")
    return float(np.std(scores))

