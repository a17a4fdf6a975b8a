"""Nonparametric comparison of the search algorithms.

Friedman ranks treatments within blocks (higher score = better = rank 1),
Wilcoxon signed-rank decides pairwise superiority at a significance
level, and stability is the spread of mean scores across missing-value
conditions. The chi-square tail is computed from a hand-rolled
regularized incomplete gamma so the package needs no statistics
dependency.
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


def _lower_gamma_series(a, x):
    term = 1.0 / a
    total = term
    n = a
    for _ in range(1000):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a, x):
    # modified Lentz continued fraction
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def chi2_sf(x, df):
    """Upper-tail probability of the chi-square distribution."""
    return gammainc_upper(df / 2.0, x / 2.0)


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
    chi2 = 12.0 * n / (k * (k + 1)) * float(np.sum(avg_ranks ** 2)) \
        - 3.0 * n * (k + 1)
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

