import dataclasses

import numpy as np
import pytest

from evomlp import objective
from evomlp.data import inject_missing, synthesize
from evomlp.genome import (Genome, HyperparamVector, NetworkSpec,
                           selective_exclusion)
from evomlp.network import (forward_batch, init_network, loss_and_gradients,
                            predict)
from evomlp.objective import (EvalConfig, classification_error, evaluate,
                              f_measure, split_folds, stratified_folds)
from evomlp.seeding import derive_seed
from evomlp.solvers import NumericFaultError, SolverSpec, make_solver


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


def _f_measure_per_class(pred, truth):
    """The per-class loop f_measure replaced, kept as its reference."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    scores = []
    for c in np.union1d(pred, truth):
        tp = np.count_nonzero((pred == c) & (truth == c))
        fp = np.count_nonzero((pred == c) & (truth != c))
        fn = np.count_nonzero((pred != c) & (truth == c))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            scores.append(2 * precision * recall / (precision + recall))
        else:
            scores.append(0.0)
    return 100.0 * float(np.mean(scores))


def test_f_measure_equals_per_class_reference():
    rng = np.random.default_rng(8)
    cases = [([2, 2, 2], [2, 2, 2]), ([1, 1], [0, 0]), ([0, 1, 2], [2, 2, 2]),
             ([-3, 7, 7, 0], [7, 7, -3, 5])]
    for _ in range(500):
        n = int(rng.integers(1, 80))
        classes = int(rng.integers(1, 5))
        # some classes occur in only one of pred and truth
        cases.append((rng.integers(0, classes, n),
                      rng.integers(int(rng.integers(0, 2)), classes + 1, n)))
    for pred, truth in cases:
        assert f_measure(pred, truth) == _f_measure_per_class(pred, truth)


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
    res = evaluate(sane_genome(), blob_data, _fast_cfg())
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
        evaluate(sane_genome(), tiny, EvalConfig(folds=5))


@pytest.mark.parametrize("label", [-1, 3])
def test_split_rejects_labels_outside_the_classes(blob_data, label):
    y = blob_data.y.copy()
    y[7] = label
    # the dataset rejects the labels before a split can be made of them
    with pytest.raises(ValueError, match="labels"):
        split_folds(dataclasses.replace(blob_data, y=y), _fast_cfg())


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
    res = evaluate(sane_genome(hidden=(16.0,)), ds,
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
    res = evaluate(bad, blob_data, _fast_cfg())
    assert 0.0 <= res.fitness <= 100.0


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(folds=1)
    with pytest.raises(ValueError):
        EvalConfig(epochs=0)
    with pytest.raises(ValueError):
        EvalConfig(batch_size=0)


def test_evaluate_on_split_equals_evaluate_on_dataset(blob_data):
    mds = inject_missing(blob_data, 0.2, seed=1)
    cfg = _fast_cfg()
    split = split_folds(mds, cfg)
    assert evaluate(sane_genome(), split, cfg) == evaluate(sane_genome(),
                                                           mds, cfg)
    for other in (EvalConfig(folds=4, epochs=10, batch_size=16, seed=0),
                  _fast_cfg(seed=1)):
        with pytest.raises(ValueError):
            evaluate(sane_genome(), split, other)
    # the split holds no batch size: any one trains on it
    other_batch = EvalConfig(folds=3, epochs=10, batch_size=7, seed=0)
    assert evaluate(sane_genome(), split, other_batch) \
        == evaluate(sane_genome(), mds, other_batch)


def test_evaluate_rejects_split_of_other_epochs(blob_data):
    split = split_folds(blob_data, _fast_cfg())
    for epochs in (9, 11):
        with pytest.raises(ValueError, match="epochs"):
            evaluate(sane_genome(), split,
                     EvalConfig(folds=3, epochs=epochs, batch_size=16,
                                seed=0))


def _spec(solver_id, hidden=(6, 4)):
    hyper = HyperparamVector(learning_rate=0.05, weight_decay=0.01, rho=0.9,
                             beta1=0.9, beta2=0.999, lam=0.5, momentum=0.9,
                             solver_gene=float(solver_id))
    return NetworkSpec(hidden_layer_sizes=hidden, solver_id=solver_id,
                       active_params=selective_exclusion(solver_id, hyper))


def _train_alone(spec, X, y, fold_i, cfg):
    """Reference: one fold trained by itself on 2-D arrays, one gradient
    call and one solver step per mini-batch; None if it diverged."""
    net = init_network(spec.hidden_layer_sizes, X.shape[1],
                       seed=derive_seed(cfg.seed, "init", fold_i))
    solver = make_solver(SolverSpec(spec.solver_id, spec.active_params),
                         [net.flat.shape])
    rng = np.random.default_rng(derive_seed(cfg.seed, "batches", fold_i))
    grad = np.empty_like(net.flat)
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(y.size)
            for start in range(0, y.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss_and_gradients(net, X[batch], None, y[batch], out=grad)
                try:
                    solver.step([net.flat], [grad])
                except NumericFaultError:
                    return None
    return net if np.all(np.isfinite(net.flat)) else None


def _assert_stacking_changes_nothing(spec, split, cfg):
    """Every fold's weights after stacked training equal, bit for bit,
    those of the fold trained alone; returns the stacked nets by fold."""
    trained = {}
    for folds, stack, alive in objective._trained_stacks(spec, split, cfg):
        for row, fold_i in enumerate(folds):
            trained[fold_i] = stack.row(row) if alive[row] else None
    assert sorted(trained) == list(range(cfg.folds))
    for fold_i, net in trained.items():
        n = split.n_train[fold_i]
        alone = _train_alone(spec, split.X_train[fold_i, :n],
                             split.targets[fold_i, :n].argmax(axis=-1),
                             fold_i, cfg)
        assert (net is None) == (alone is None)
        if net is not None:
            assert np.array_equal(net.flat, alone.flat)
    return trained


STACK_CASES = {  # rows, folds, batch size
    "k2": (64, 2, 10),
    "k2-whole-batches": (64, 2, 8),
    "k3-ragged-last-batch": (61, 3, 16),
    "k3-unequal-batch-counts": (73, 3, 16),
    "k10-ragged-last-batch": (103, 10, 8),
    "k10-unequal-batch-counts": (103, 10, 4),
}


def _stack_case(case, epochs=3):
    rows, folds, batch_size = STACK_CASES[case]
    cfg = EvalConfig(folds=folds, epochs=epochs, batch_size=batch_size,
                     seed=4)
    ds = inject_missing(synthesize(rows, 5, 3, separation=3.0, seed=1), 0.2,
                        seed=2)
    return split_folds(ds, cfg), cfg


@pytest.mark.parametrize("case", sorted(STACK_CASES))
@pytest.mark.parametrize("solver_id", range(1, 11))
def test_stacked_training_matches_each_fold_alone(case, solver_id):
    split, cfg = _stack_case(case)
    batches = -(-split.n_train // cfg.batch_size)
    if "ragged" in case:
        assert np.all(split.n_train % cfg.batch_size)
        assert len(set(split.n_train)) > 1 and len(set(batches)) == 1
    if "unequal" in case:
        assert len(set(batches)) > 1
    if "whole" in case:
        assert not np.any(split.n_train % cfg.batch_size)
    _assert_stacking_changes_nothing(_spec(solver_id), split, cfg)


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacks_hold_folds_of_one_training_size(case):
    split, cfg = _stack_case(case)
    stacks = objective._stacks(split, n_params=1)
    # ranges of consecutive folds, in fold order, covering every fold
    assert all(isinstance(s, range) and s.step == 1 for s in stacks)
    assert [f for s in stacks for f in s] == list(range(cfg.folds))
    sizes = [set(split.n_train[s].tolist()) for s in stacks]
    assert all(len(size) == 1 for size in sizes)
    assert len(stacks) == len(set(split.n_train.tolist())) <= 2


@pytest.mark.parametrize("solver_id", range(1, 11))
def test_stacks_split_by_parameter_cap(monkeypatch, solver_id):
    split, cfg = _stack_case("k10-ragged-last-batch")
    spec = _spec(solver_id)
    n_params = init_network(spec.hidden_layer_sizes, split.p, 0).flat.size
    monkeypatch.setattr(objective, "STACK_PARAMS", 3 * n_params + 1)
    stacks = objective._stacks(split, n_params)
    assert [len(s) for s in stacks] == [3, 3, 3, 1]
    _assert_stacking_changes_nothing(spec, split, cfg)


@pytest.mark.parametrize("case", ["k2", "k3-ragged-last-batch",
                                  "k10-ragged-last-batch"])
@pytest.mark.parametrize("solver_id", range(1, 11))
def test_diverged_fold_leaves_the_others_alone(case, solver_id):
    split, cfg = _stack_case(case)
    # past the scaling step, so only fold 1's training rows see it
    split.X_train[1, 5, 2] = np.nan
    trained = _assert_stacking_changes_nothing(_spec(solver_id), split, cfg)
    assert [fold_i for fold_i, net in trained.items() if net is None] == [1]
    scores = evaluate(Genome(hyper=HyperparamVector(
        learning_rate=0.05, weight_decay=0.01, rho=0.9, beta1=0.9,
        beta2=0.999, lam=0.5, momentum=0.9, solver_gene=float(solver_id)),
        neurons=(6.0, 4.0)), split, cfg).per_fold
    assert scores[1] == {"error": 100.0, "accuracy": 0.0, "f_measure": 0.0}
    assert all(score["error"] < 100.0 for i, score in enumerate(scores)
               if i != 1)


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_split_batch_orders_are_the_per_fold_permutations(case):
    # what each fold drew for itself, epoch by epoch, before the split
    # held the orders
    split, cfg = _stack_case(case, epochs=4)
    n_max = split.X_train.shape[1]
    assert split.batch_rows.shape == (cfg.epochs, cfg.folds, n_max)
    for fold_i, n in enumerate(split.n_train):
        rng = np.random.default_rng(derive_seed(cfg.seed, "batches", fold_i))
        for epoch in range(cfg.epochs):
            assert np.array_equal(
                split.batch_rows[epoch, fold_i, :n] - fold_i * n_max,
                rng.permutation(n))


@pytest.mark.parametrize("case", ["k3-ragged-last-batch",
                                  "k10-unequal-batch-counts"])
def test_split_padding_is_never_read(case):
    split, cfg = _stack_case(case)
    assert len(set(split.n_train)) == len(set(split.n_test)) == 2
    genome = sane_genome(hidden=(6.0, 4.0))
    untouched = evaluate(genome, split, cfg)
    out_of_range = split.X_train.shape[0] * split.X_train.shape[1]
    for fold_i in range(cfg.folds):
        n, t = split.n_train[fold_i], split.n_test[fold_i]
        split.X_train[fold_i, n:] = np.nan
        split.targets[fold_i, n:] = np.nan
        split.batch_rows[:, fold_i, n:] = out_of_range
        split.X_test[fold_i, t:] = np.nan
        split.y_test[fold_i, t:] = 7
    assert evaluate(genome, split, cfg) == untouched


def test_split_init_rngs_restart_from_each_folds_seed():
    split, cfg = _stack_case("k3-ragged-last-batch")
    for fold_i in range(cfg.folds):
        seeded = np.random.default_rng(derive_seed(cfg.seed, "init", fold_i))
        split.init_rng(fold_i).random(7)  # a used generator is reset
        assert np.array_equal(split.init_rng(fold_i).random(20),
                              seeded.random(20))


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_predictions_equal_each_rows_predictions(case):
    split, cfg = _stack_case(case)
    for folds, stack, alive in objective._trained_stacks(_spec(1), split,
                                                         cfg):
        n = split.n_test[folds.start]
        assert np.all(split.n_test[folds] == n)
        X_test = split.X_test[folds.start:folds.stop, :n]
        pred, scores = predict(stack, X_test), forward_batch(stack, X_test)
        assert pred.shape == X_test.shape[:2]
        for row in range(len(folds)):
            assert np.array_equal(pred[row],
                                  predict(stack.row(row), X_test[row]))
            assert np.array_equal(scores[row],
                                  forward_batch(stack.row(row), X_test[row]))


def test_stack_scores_equal_error_and_f_measure_per_row():
    rng = np.random.default_rng(12)
    for _ in range(400):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 25))
        # labels from random subsets, so classes go missing on either side
        pred = rng.choice(rng.permutation(3)[:rng.integers(1, 4)], (k, n))
        truth = rng.choice(rng.permutation(3)[:rng.integers(1, 4)], (k, n))
        scores = objective._stack_scores(pred, truth)
        for row in range(k):
            err = classification_error(pred[row], truth[row])
            assert scores[row] == {"error": err, "accuracy": 100.0 - err,
                                   "f_measure": f_measure(pred[row],
                                                          truth[row])}
