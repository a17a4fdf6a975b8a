import numpy as np
import pytest

from evomlp.data import as_masked, inject_missing, synthesize
from evomlp.genome import Genome, HyperparamVector
from evomlp.objective import (EvalConfig, classification_error, evaluate,
                              f_measure, stratified_folds)


def sane_genome(hidden=(16.0,), solver=1.0, lr=0.01):
    hyper = HyperparamVector(learning_rate=lr, weight_decay=0.0, rho=0.9,
                             beta1=0.9, beta2=0.999, lam=0.5, momentum=0.9,
                             solver_gene=solver)
    return Genome(hyper=hyper, neurons=tuple(hidden))


def test_classification_error_examples():
    assert classification_error([0, 1, 2, 0], [0, 1, 2, 0]) == 0.0
    assert classification_error([0, 1, 2, 1], [0, 1, 2, 0]) == 25.0
    assert classification_error([1, 2, 0], [0, 1, 2]) == 100.0


def test_classification_error_rejects_empty_and_unequal():
    with pytest.raises(ValueError):
        classification_error([], [])
    with pytest.raises(ValueError):
        classification_error([0, 1], [0])


def test_f_measure_perfect():
    assert f_measure([0, 1, 2], [0, 1, 2]) == 100.0


def test_f_measure_hand_computed():
    # both present classes get precision = recall = 1/2
    assert f_measure([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(50.0)


def test_f_measure_single_class():
    assert f_measure([0, 0], [0, 0]) == 100.0


def test_stratified_folds_partition():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, size=57)
    folds = stratified_folds(y, 5, rng)
    joined = np.concatenate(folds)
    assert sorted(joined.tolist()) == list(range(57))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 3  # near-even split per class
    for fold in folds:
        counts = np.bincount(y[fold], minlength=3)
        overall = np.bincount(y, minlength=3) / 5
        assert np.all(np.abs(counts - overall) <= 1.5)


def _loop_folds(y, k, rng):
    """Reference: the per-row dealing loop the vectorized version
    replaced."""
    folds = [[] for _ in range(k)]
    offset = 0
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(idx.size)]
        for j, row in enumerate(idx):
            folds[(offset + j) % k].append(row)
        offset += idx.size
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def test_stratified_folds_match_dealing_loop():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        y = rng.integers(0, 4, size=n)
        k = int(rng.integers(2, 11))
        fast = stratified_folds(y, k, np.random.default_rng(seed))
        slow = _loop_folds(y, k, np.random.default_rng(seed))
        assert len(fast) == len(slow) == k
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def blob_data():
    return synthesize(120, 6, 3, separation=5.0, seed=3)


def _fast_cfg(seed=0):
    return EvalConfig(folds=3, epochs=10, batch_size=16, seed=seed)


def test_evaluate_fitness_in_range(blob_data):
    res = evaluate(sane_genome(), as_masked(blob_data), _fast_cfg())
    assert 0.0 <= res.fitness <= 100.0
    assert res.accuracy == pytest.approx(100.0 - res.fitness)
    assert 0.0 <= res.f_measure <= 100.0
    assert len(res.per_fold) == 3
    for fold in res.per_fold:
        assert fold["accuracy"] == pytest.approx(100.0 - fold["error"])


def test_evaluate_deterministic(blob_data):
    mds = inject_missing(blob_data, 0.2, seed=1)
    a = evaluate(sane_genome(), mds, _fast_cfg())
    b = evaluate(sane_genome(), mds, _fast_cfg())
    assert a == b


def test_evaluate_all_ones_mask_equals_unmasked(blob_data):
    cfg = _fast_cfg()
    direct = evaluate(sane_genome(), blob_data, cfg)
    masked = evaluate(sane_genome(), inject_missing(blob_data, 0.0, 9),
                      cfg)
    assert direct.fitness == masked.fitness
    assert direct == masked


def test_evaluate_rejects_too_few_rows(blob_data):
    tiny = synthesize(4, 3, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        evaluate(sane_genome(), as_masked(tiny), EvalConfig(folds=5))


def _softmax_regression_error(ds, folds, seed):
    """Independent oracle: plain softmax regression on the same folds."""
    rng = np.random.default_rng(seed)
    fold_idx = stratified_folds(ds.y, folds, rng)
    errors = []
    for test_idx in fold_idx:
        train_idx = np.setdiff1d(np.arange(ds.n), test_idx)
        mn = ds.X[train_idx].min(axis=0)
        mx = ds.X[train_idx].max(axis=0)
        span = np.where(mx > mn, mx - mn, 1.0)
        Xtr = (ds.X[train_idx] - mn) / span
        Xte = np.clip((ds.X[test_idx] - mn) / span, 0, 1)
        ytr = ds.y[train_idx]
        W = np.zeros((ds.p, 3))
        b = np.zeros(3)
        for _ in range(400):
            Z = Xtr @ W + b
            P = np.exp(Z - Z.max(axis=1, keepdims=True))
            P /= P.sum(axis=1, keepdims=True)
            G = P
            G[np.arange(ytr.size), ytr] -= 1
            G /= ytr.size
            W -= 0.5 * Xtr.T @ G
            b -= 0.5 * G.sum(axis=0)
        pred = np.argmax(Xte @ W + b, axis=1)
        errors.append(100.0 * np.mean(pred != ds.y[test_idx]))
    return float(np.mean(errors))


def test_separable_blobs_reach_low_error():
    ds = synthesize(240, 8, 3, separation=5.0, seed=11)
    oracle = _softmax_regression_error(ds, folds=3, seed=0)
    assert oracle < 10.0  # the problem really is easy
    res = evaluate(sane_genome(hidden=(16.0,)), as_masked(ds),
                   EvalConfig(folds=3, epochs=30, batch_size=16, seed=0))
    assert res.fitness < 10.0


def test_diverging_genome_scores_worst_not_raises(blob_data):
    # RMSprop with rho at the bound explodes; the fold must score 100,
    # not raise out of the evaluation
    bad = Genome(
        hyper=HyperparamVector(learning_rate=1.0, weight_decay=0.2,
                               rho=1.0, beta1=1.0, beta2=1.0, lam=1.0,
                               momentum=1.0, solver_gene=8.0),
        neurons=(64.0,))
    res = evaluate(bad, as_masked(blob_data), _fast_cfg())
    assert 0.0 <= res.fitness <= 100.0


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(folds=1)
    with pytest.raises(ValueError):
        EvalConfig(epochs=0)
