"""Fitness of a genome: cross-validated classification error of the
decoded, solver-trained masked network.

Training minimizes cross-entropy (the search objective itself, percent
error, is not differentiable); scoring uses percent error so fitness lives
in [0, 100] with accuracy = 100 - error on the same predictions.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .data import LabeledDataset, MaskedDataset, as_masked
from .genome import SearchSpace, decode
from .seeding import derive_seed
from .solvers import NumericFaultError, SolverSpec, make_solver


@dataclass(frozen=True)
class EvalConfig:
    folds: int = 10
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class EvalResult:
    fitness: float          # mean percent error over folds
    accuracy: float
    f_measure: float
    per_fold: tuple

    def to_dict(self):
        return {
            "fitness": self.fitness,
            "accuracy": self.accuracy,
            "f_measure": self.f_measure,
            "per_fold": [dict(f) for f in self.per_fold],
        }


def classification_error(pred, truth):
    """100/P * (# mismatches)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if pred.size == 0:
        raise ValueError("empty prediction set")
    return 100.0 * np.count_nonzero(pred != truth) / pred.size


def f_measure(pred, truth):
    """Macro F1 * 100 over the classes present in pred or truth.

    Classes that never occur on either side are perfectly predicted by
    definition and stay out of the average.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if pred.size == 0:
        raise ValueError("empty prediction set")
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


def stratified_folds(y, k, rng):
    """Partition indices into k folds with per-class balance.

    Every row lands in exactly one fold; class members are dealt
    round-robin after a shuffle.
    """
    fold_of = np.empty(len(y), dtype=int)
    offset = 0
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(idx.size)]
        fold_of[idx] = (offset + np.arange(idx.size)) % k
        offset += idx.size
    return [np.flatnonzero(fold_of == f) for f in range(k)]


def _fit_minmax(X, M):
    """Per-feature min/max over observed entries only; features with no
    observed entry scale to zero."""
    observed = M > 0
    mn = np.where(observed, X, np.inf).min(axis=0)
    mx = np.where(observed, X, -np.inf).max(axis=0)
    unobserved = ~observed.any(axis=0)
    mn = np.where(unobserved, 0.0, mn)
    mx = np.where(unobserved, 0.0, mx)
    return mn, mx


def _apply_minmax(X, M, mn, mx):
    span = mx - mn
    span = np.where(span == 0, 1.0, span)
    scaled = np.clip((X - mn) / span, 0.0, 1.0)
    return scaled * M  # mask re-applied after scaling


def evaluate(genome, ds, cfg, space=None):
    """Stratified k-fold score of one genome; deterministic per inputs.

    Returns an EvalResult whose fitness (mean fold percent error) the
    optimizers minimize.
    """
    if isinstance(ds, LabeledDataset):
        ds = as_masked(ds)
    if not isinstance(ds, MaskedDataset):
        raise TypeError("expected a LabeledDataset or MaskedDataset")
    if ds.n < cfg.folds:
        raise ValueError(f"{ds.n} rows cannot fill {cfg.folds} folds")
    space = space or SearchSpace()
    spec = decode(genome, space)

    folds = stratified_folds(ds.y, cfg.folds,
                             np.random.default_rng(
                                 derive_seed(cfg.seed, "folds")))
    all_idx = np.arange(ds.n)
    per_fold = []
    for fold_i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=False)
        mn, mx = _fit_minmax(ds.X[train_idx], ds.M[train_idx])
        X_train = _apply_minmax(ds.X[train_idx], ds.M[train_idx], mn, mx)
        X_test = _apply_minmax(ds.X[test_idx], ds.M[test_idx], mn, mx)
        M_train, M_test = ds.M[train_idx], ds.M[test_idx]
        y_train, y_test = ds.y[train_idx], ds.y[test_idx]

        net = network.init_network(
            spec.hidden_layer_sizes, ds.p,
            seed=derive_seed(cfg.seed, "init", fold_i))
        trained = _train(net, SolverSpec(spec.solver_id, spec.active_params),
                         X_train, M_train, y_train, cfg,
                         rng=np.random.default_rng(
                             derive_seed(cfg.seed, "batches", fold_i)))

        if trained:
            pred = network.predict(net, X_test, M_test)
            err = classification_error(pred, y_test)
            fold_score = {
                "error": err,
                "accuracy": 100.0 - err,
                "f_measure": f_measure(pred, y_test),
            }
        else:
            # diverged numerically: worst possible score, not an error,
            # so the surrounding search stays total
            fold_score = {"error": 100.0, "accuracy": 0.0,
                          "f_measure": 0.0}
        per_fold.append(fold_score)

    fitness = float(np.mean([f["error"] for f in per_fold]))
    return EvalResult(
        fitness=fitness,
        accuracy=100.0 - fitness,
        f_measure=float(np.mean([f["f_measure"] for f in per_fold])),
        per_fold=tuple(per_fold),
    )


def _train(net, solver_spec, X, M, y, cfg, rng):
    """Mini-batch training of net.flat in place, against one gradient
    vector of the same layout; returns False if the weights blew up.

    The solver and the gradient vector live only for the call, so one
    fold's training state is freed before the next fold's is made."""
    solver = make_solver(solver_spec, [net.flat.shape])
    n = X.shape[0]
    params, grads = [net.flat], [np.empty_like(net.flat)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                network.loss_and_gradients(
                    net, X[batch], M[batch], y[batch], out=grads[0])
                try:
                    solver.step(params, grads)
                except NumericFaultError:
                    return False
    return bool(np.all(np.isfinite(net.flat)))
