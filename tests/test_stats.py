import itertools

import numpy as np
import pytest

from evomlp.stats import (EQUIVALENT, INFERIOR, SUPERIOR, chi2_sf, friedman,
                          pairwise_verdicts, stability, wilcoxon_signed_rank,
                          win_tie_loss)


def test_chi2_tail_against_scipy():
    # every df from 1 to 30, x from 1e-4 out to tails near 1e-300
    scipy_stats = pytest.importorskip("scipy.stats")
    smallest = 1.0
    for df in range(1, 31):
        for x in np.geomspace(1e-4, 1400.0, 120):
            expected = scipy_stats.chi2.sf(x, df)
            if expected < 1e-300:
                continue
            smallest = min(smallest, expected)
            assert chi2_sf(float(x), df) == pytest.approx(expected,
                                                          rel=1e-12, abs=0.0)
    assert smallest < 1e-299


def test_chi2_sf_is_one_at_zero():
    for df in (1, 2, 3, 12, 29, 30):
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(-1e-15, df) == 1.0


@pytest.mark.parametrize("shape", [(5, 4), (7, 5), (3, 11), (17, 4)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_friedman_full_ties(shape):
    # (7, 5), (3, 11) and (17, 4) round the statistic just below zero
    k = shape[1]
    r = friedman(np.ones(shape))
    assert r["chi2"] == 0.0
    assert r["average_ranks"] == [(k + 1) / 2] * k
    assert not r["significant"]


def test_friedman_strict_ordering_hand_value():
    # 3 treatments, 4 blocks, A > B > C in every block -> chi2 = 8
    m = np.array([[30.0, 20.0, 10.0]] * 4)
    r = friedman(m)
    assert r["chi2"] == pytest.approx(8.0)
    assert r["average_ranks"] == [1.0, 2.0, 3.0]


def test_friedman_decision_rule_matches_critical_value():
    # chi2 of 61.48 at df = 12 is far beyond the 21.03 critical value
    assert chi2_sf(61.48, 12) < 0.05
    assert chi2_sf(61.48, 12) == pytest.approx(1.21e-8, rel=0.01)
    assert chi2_sf(21.02, 12) > 0.05 > chi2_sf(21.04, 12)


def test_friedman_rank_sums_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, k = rng.integers(1, 8), rng.integers(2, 9)
        m = rng.normal(size=(n, k)).round(1)  # rounding makes ties
        r = friedman(m)
        assert sum(r["average_ranks"]) == pytest.approx(k * (k + 1) / 2)


def test_friedman_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 5))
    a = friedman(m)
    b = friedman(np.exp(3 * m))  # strictly monotone transform
    assert a["chi2"] == pytest.approx(b["chi2"])
    assert a["average_ranks"] == b["average_ranks"]


def test_friedman_rejects_single_treatment():
    with pytest.raises(ValueError):
        friedman(np.ones((3, 1)))


def test_wilcoxon_equal_samples_equivalent():
    v = wilcoxon_signed_rank(np.arange(10.0), np.arange(10.0))
    assert v.verdict == EQUIVALENT


def test_wilcoxon_statistic_example():
    # differences 1..5 positive and one -6: W = min(15, 6) = 6
    a = np.array([1.0, 2, 3, 4, 5, 0])
    b = np.array([0.0, 0, 0, 0, 0, 6])
    v = wilcoxon_signed_rank(a, b)
    assert v.statistic == 6.0


def test_wilcoxon_all_positive_superior():
    v = wilcoxon_signed_rank(np.arange(1, 11.0), np.zeros(10), alpha=0.05)
    assert v.verdict == SUPERIOR
    assert v.p_value == pytest.approx(2.0 / 1024.0)


def test_wilcoxon_insufficient_pairs_equivalent():
    v = wilcoxon_signed_rank(np.array([1.0, 2, 3, 4]),
                             np.array([0.0, 0, 0, 0]))
    assert v.verdict == EQUIVALENT
    assert v.p_value == 1.0


def test_wilcoxon_length_mismatch():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.zeros(3), np.zeros(4))


def _brute_force_p(d):
    scipy_stats = pytest.importorskip("scipy.stats")
    d = d[d != 0]
    ranks = scipy_stats.rankdata(np.abs(d))
    total = ranks.sum()
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    hits = 0
    for signs in itertools.product((1, -1), repeat=len(d)):
        w_plus = ranks[np.array(signs) > 0].sum()
        if min(w_plus, total - w_plus) <= w_obs + 1e-12:
            hits += 1
    return hits / 2 ** len(d)


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 40:
        n = int(rng.integers(5, 13))
        a = rng.normal(size=n).round(1)
        b = rng.normal(size=n).round(1)
        if np.count_nonzero(a - b) < 5:
            continue
        mine = wilcoxon_signed_rank(a, b).p_value
        assert mine == pytest.approx(_brute_force_p(a - b), abs=1e-12)
        checked += 1


def test_wilcoxon_normal_approximation_reasonable():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    a = rng.normal(0.6, 1.0, size=40)
    b = rng.normal(0.0, 1.0, size=40)
    mine = wilcoxon_signed_rank(a, b).p_value
    ref = scipy_stats.wilcoxon(a, b, correction=False,
                               mode="approx").pvalue
    assert mine == pytest.approx(ref, rel=1e-6)


def test_pairwise_verdicts_antisymmetric():
    rng = np.random.default_rng(4)
    vectors = [rng.normal(loc, 1.0, size=12) for loc in (0.0, 1.0, 3.0)]
    matrix = pairwise_verdicts(vectors, alpha=0.05)
    k = len(matrix)
    for i in range(k):
        assert matrix[i][i] is None
        for j in range(k):
            if i == j:
                continue
            pair = (matrix[i][j], matrix[j][i])
            assert pair in ((SUPERIOR, INFERIOR), (INFERIOR, SUPERIOR),
                            (EQUIVALENT, EQUIVALENT))


def test_win_tie_loss_all_equivalent():
    k = 13
    matrix = [[None if i == j else EQUIVALENT for j in range(k)]
              for i in range(k)]
    assert win_tie_loss(matrix) == [(0, 12, 0)] * 13


def test_win_tie_loss_dominant_row():
    k = 4
    matrix = [[None] * k for _ in range(k)]
    for j in range(1, k):
        matrix[0][j] = SUPERIOR
        matrix[j][0] = INFERIOR
    for i in range(1, k):
        for j in range(1, k):
            if i != j:
                matrix[i][j] = EQUIVALENT
    wtl = win_tie_loss(matrix)
    assert wtl[0] == (3, 0, 0)
    assert all(w + t + l == k - 1 for w, t, l in wtl)


def test_win_tie_loss_rejects_non_square():
    with pytest.raises(ValueError):
        win_tie_loss([[None, EQUIVALENT], [EQUIVALENT]])


def test_stability_examples():
    assert stability([70.0, 70.0, 70.0]) == 0.0
    assert stability([80.0, 90.0]) == 5.0


def test_stability_derived_value():
    scores = [87.63, 64.19, 70.19, 71.50]
    mean = sum(scores) / 4
    expected = (sum((s - mean) ** 2 for s in scores) / 4) ** 0.5
    assert stability(scores) == pytest.approx(expected)


def test_stability_needs_two_values():
    with pytest.raises(ValueError):
        stability([50.0])
