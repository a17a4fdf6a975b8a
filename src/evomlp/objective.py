"""Fitness of a genome: cross-validated classification error of the
decoded, solver-trained masked network.

Training minimizes cross-entropy (the search objective itself, percent
error, is not differentiable); scoring uses percent error so fitness lives
in [0, 100] with accuracy = 100 - error on the same predictions.

What an evaluation needs that does not depend on the genome is made
once per dataset by `split_folds`, as a FoldSplit indexed by fold: each
fold's min-max scaled training and test rows, multiplied once by the
mask the dataset carries, its one-hot training targets, its batch order
for every epoch and its seeded initial-weight generator.
`driver.run_benchmark` makes one split per missing rate before any grid
cell runs, `cli`'s search command makes the one split of its run, and
`driver.layer_growth_search` takes only a split; `evaluate` takes it in
place of the dataset, or makes it from a dataset it is given. The batch
orders take epochs x folds x training rows x 8 bytes, 5.4 MB at the
default EvalConfig on a 1 500-row dataset.

Within one evaluation the folds train as stacks of nets (see network):
a stack is a range of consecutive folds whose training sets have one
size, so every mini-batch has one length across the stack and nothing
is padded, and every fold gets the bits it would get alone.
`stratified_folds` deals rows round-robin, so fold f tests on
n // k + (f < n % k) rows: training sets take at most two sizes, each
on one run of consecutive folds, and an evaluation trains at most two
stacks. A stack holds at most STACK_PARAMS parameters, since its memory
grows with k. Training gathers each epoch's rows once, takes every
mini-batch as a view of that gather, and never asks for the loss. Each
stack is scored with one `predict` call and one confusion count.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .genome import SearchSpace, check_fields, decode
from .seeding import derive_seed
from .solvers import NumericFaultError, SolverSpec, make_solver


@dataclass(frozen=True)
class EvalConfig:
    folds: int = 10
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EvalResult:
    fitness: float          # mean percent error over folds
    accuracy: float
    f_measure: float
    per_fold: tuple

    def __float__(self):
        return self.fitness


def _prediction_pair(pred, truth):
    """pred and truth as arrays; ValueError unless they are of one shape
    and not empty."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if pred.size == 0:
        raise ValueError("empty prediction set")
    return pred, truth


def classification_error(pred, truth):
    """100/P * (# mismatches)."""
    pred, truth = _prediction_pair(pred, truth)
    return 100.0 * np.count_nonzero(pred != truth) / pred.size


def f_measure(pred, truth):
    """Macro F1 * 100 over the classes present in pred or truth.

    Classes that never occur on either side are perfectly predicted by
    definition and stay out of the average.
    """
    pred, truth = _prediction_pair(pred, truth)
    classes, codes = np.unique(np.concatenate([pred.ravel(), truth.ravel()]),
                               return_inverse=True)
    m = classes.size
    # pairs[c * m + d]: how many rows are predicted c and truly d
    pairs = np.bincount(codes[:pred.size] * m + codes[pred.size:],
                        minlength=m * m).tolist()
    return _fold_scores(pairs, m, pred.size)["f_measure"]


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


# Most parameters one stack trains at once. Stacking k folds multiplies
# the solver state, the gradient buffer and the activations of a
# mini-batch by k; on nets of tens of thousands of parameters that memory
# outweighs the per-call overhead a stack saves (uncapped stacking raised
# the peak memory of a search over 1-400 neurons per layer by about a
# sixth), so a net above the cap trains one fold at a time.
STACK_PARAMS = 1 << 16


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """The stratified k-fold split of one dataset, ready for training.

    Every per-fold array is indexed by fold (batch_rows by epoch, then
    fold) and padded to the largest fold; fold i reads only its first
    n_train[i] training and n_test[i] test rows, and padding is never
    read.

    - X_train[i, :n_train[i]] are fold i's training rows, min-max scaled
      on themselves and then multiplied by their mask, as the network's
      first layer would; targets[i, :n_train[i]] are their one-hot labels.
    - batch_rows[e, i, :n_train[i]] lists fold i's training rows in epoch
      e's batch order, as rows of X_train.reshape(-1, p) (and of targets
      reshaped alike), the orders drawn from the fold's own seeded
      Generator.
    - X_test[i, :n_test[i]] and y_test[i, :n_test[i]] are fold i's test
      rows, scaled and masked like its training rows, and their labels.

    init_rngs[i] = (Generator, state) is fold i's Generator for initial
    weights and its freshly seeded state; init_rng(i) resets and returns
    it. missing_rate is the fraction of the dataset's entries masked.

    The split depends only on the dataset and on cfg.folds, cfg.epochs
    and cfg.seed, so a run makes it once and scores every genome on it.
    The batch orders take epochs x folds x n_train x 8 bytes: 5.4 MB at
    the default EvalConfig (10 folds, 50 epochs) on 1 500 rows.
    """

    folds: int
    epochs: int
    seed: int
    missing_rate: float
    X_train: np.ndarray
    targets: np.ndarray
    n_train: np.ndarray
    batch_rows: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    n_test: np.ndarray
    init_rngs: tuple

    @property
    def p(self):
        return self.X_train.shape[-1]

    def init_rng(self, fold_i):
        """Fold fold_i's initial-weight Generator, reset to its seed."""
        rng, state = self.init_rngs[fold_i]
        rng.bit_generator.state = state
        return rng


def split_folds(ds, cfg):
    """The FoldSplit of a LabeledDataset under cfg."""
    if ds.n < cfg.folds:
        raise ValueError(f"{ds.n} rows cannot fill {cfg.folds} folds")
    folds = stratified_folds(ds.y, cfg.folds,
                             np.random.default_rng(
                                 derive_seed(cfg.seed, "folds")))
    n_test = np.array([f.size for f in folds])
    n_train = ds.n - n_test
    n_max = n_train.max()
    X_train = np.zeros((cfg.folds, n_max, ds.p))
    y_train = np.zeros((cfg.folds, n_max), dtype=ds.y.dtype)
    X_test = np.zeros((cfg.folds, n_test.max(), ds.p))
    y_test = np.zeros((cfg.folds, n_test.max()), dtype=ds.y.dtype)
    batch_rows = np.zeros((cfg.epochs, cfg.folds, n_max), dtype=np.intp)
    init_rngs = []
    for fold_i, test_idx in enumerate(folds):  # Python ints seed the rngs
        train_idx = np.setdiff1d(np.arange(ds.n), test_idx)
        n, t = train_idx.size, test_idx.size
        M_train, M_test = ds.M[train_idx], ds.M[test_idx]
        mn, mx = _fit_minmax(ds.X[train_idx], M_train)
        X_train[fold_i, :n] = _apply_minmax(ds.X[train_idx], M_train, mn, mx)
        y_train[fold_i, :n] = ds.y[train_idx]
        X_test[fold_i, :t] = _apply_minmax(ds.X[test_idx], M_test, mn, mx)
        y_test[fold_i, :t] = ds.y[test_idx]
        rng = np.random.default_rng(derive_seed(cfg.seed, "batches", fold_i))
        for epoch in range(cfg.epochs):
            batch_rows[epoch, fold_i, :n] = fold_i * n_max + rng.permutation(n)
        rng = np.random.default_rng(derive_seed(cfg.seed, "init", fold_i))
        init_rngs.append((rng, rng.bit_generator.state))
    return FoldSplit(
        folds=cfg.folds, epochs=cfg.epochs, seed=cfg.seed,
        missing_rate=round(1.0 - float(np.mean(ds.M)), 6),
        X_train=X_train, targets=network.one_hot(y_train), n_train=n_train,
        batch_rows=batch_rows, X_test=X_test, y_test=y_test, n_test=n_test,
        init_rngs=tuple(init_rngs))


def evaluate(genome, ds, cfg, space=None):
    """Stratified k-fold score of one genome; deterministic per inputs.

    ds is a LabeledDataset or the FoldSplit of one made with the same
    cfg. Returns an EvalResult whose fitness (mean fold percent error)
    the optimizers minimize.
    """
    split = ds if isinstance(ds, FoldSplit) else split_folds(ds, cfg)
    made = (split.folds, split.epochs, split.seed)
    if made != (cfg.folds, cfg.epochs, cfg.seed):
        raise ValueError(
            f"split made for (folds, epochs, seed) = {made}, config asks "
            f"for {(cfg.folds, cfg.epochs, cfg.seed)}")
    spec = decode(genome, space or SearchSpace())
    per_fold = [None] * cfg.folds
    for folds, stack, trained in _trained_stacks(spec, split, cfg):
        n = split.n_test[folds.start]
        X_test = split.X_test[folds.start:folds.stop, :n]
        y_test = split.y_test[folds.start:folds.stop, :n]
        # a diverged row's weights may be non-finite; its scores are not
        # read, and zeros keep its predictions quiet
        stack.flat[~trained] = 0.0
        scores = _stack_scores(network.predict(stack, X_test), y_test)
        for row, fold_i in enumerate(folds):
            # a diverged fold scores worst, not an error, so the
            # surrounding search stays total
            per_fold[fold_i] = scores[row] if trained[row] else {
                "error": 100.0, "accuracy": 0.0, "f_measure": 0.0}

    fitness = float(np.mean([f["error"] for f in per_fold]))
    return EvalResult(
        fitness=fitness,
        accuracy=100.0 - fitness,
        f_measure=float(np.mean([f["f_measure"] for f in per_fold])),
        per_fold=tuple(per_fold),
    )


def _stack_scores(pred, truth):
    """Per-row score dicts of (k, n) predicted against (k, n) true labels
    in [0, N_OUTPUTS), from one confusion count for all rows; each is
    what classification_error and f_measure give for its row."""
    k, n = truth.shape
    m = network.N_OUTPUTS
    codes = pred * m
    codes += truth
    codes += np.arange(0, k * m * m, m * m)[:, np.newaxis]
    counts = np.bincount(codes.ravel(), minlength=k * m * m).tolist()
    return [_fold_scores(counts[i * m * m:(i + 1) * m * m], m, n)
            for i in range(k)]


def _fold_scores(pairs, m, n):
    """Error, accuracy and F-measure of one fold's n predictions, where
    pairs[c * m + d] counts the rows predicted c and truly d.

    The F-measure averages the classes that occur on either side; its
    mean is a left-to-right sum, which is what np.mean gives for fewer
    than 8 classes."""
    hits = sum(pairs[c * m + c] for c in range(m))
    err = 100.0 * (n - hits) / n
    scores = []
    for c in range(m):
        tp = pairs[c * m + c]
        predicted, actual = sum(pairs[c * m:(c + 1) * m]), sum(pairs[c::m])
        if predicted or actual:  # the class occurs on either side
            precision = tp / predicted if predicted else 0.0
            recall = tp / actual if actual else 0.0
            scores.append(2 * precision * recall / (precision + recall)
                          if precision + recall else 0.0)
    return {"error": err, "accuracy": 100.0 - err,
            "f_measure": 100.0 * (sum(scores) / len(scores))}


def _trained_stacks(spec, split, cfg):
    """Yields (folds, stack, trained) for every stack of folds: the
    folds in stack-row order, the stack after training, and which rows
    trained without blowing up."""
    solver_spec = SolverSpec(spec.solver_id, spec.active_params)
    sizes = (split.p, *spec.hidden_layer_sizes, network.N_OUTPUTS)
    n_params = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    for folds in _stacks(split, n_params):
        stack = network.init_stack(spec.hidden_layer_sizes, split.p,
                                   [split.init_rng(f) for f in folds])
        yield folds, stack, _train(stack, solver_spec, split, folds, cfg)


def _stacks(split, n_params):
    """Ranges of consecutive folds to train together: folds with training
    sets of one size, at most STACK_PARAMS parameters per stack."""
    per_stack = max(1, STACK_PARAMS // n_params)
    ends = [*(np.flatnonzero(np.diff(split.n_train)) + 1).tolist(),
            split.folds]
    return [range(i, min(i + per_stack, end))
            for start, end in zip([0, *ends], ends)
            for i in range(start, end, per_stack)]


def _train(stack, solver_spec, split, folds, cfg):
    """Mini-batch training of a stack in place, row r on fold folds[r]
    (folds is a range); returns which rows trained without blowing up.

    The folds of a stack have training sets of one size, so each
    mini-batch is one gradient call on the whole stack and one solver
    step, every row in its own fold's batch order. Each epoch gathers
    the rows and targets in those orders with one take each, and every
    batch is a view of that gather; the loss is never computed. A row
    whose gradient goes non-finite is dead from then on: its parameter
    row is zeroed, and so is its gradient row after every gradient call,
    so the solver steps the other rows to the bits they would get alone
    (every solver rule is elementwise). The solver and the gradient
    buffer live only for the call, so one stack's training state is
    freed before the next stack's is made."""
    n = split.n_train[folds.start]
    epoch_rows = split.batch_rows[:, folds.start:folds.stop, :n]
    batches = [slice(start, start + cfg.batch_size)
               for start in range(0, n, cfg.batch_size)]
    X_rows = split.X_train.reshape(-1, split.p)
    target_rows = split.targets.reshape(-1, split.targets.shape[-1])
    solver = make_solver(solver_spec, [stack.flat.shape])
    params, grads = [stack.flat], [np.empty_like(stack.flat)]
    grad = grads[0]
    dead = None  # rows whose gradient went non-finite, once one has
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rows in epoch_rows:
            X = X_rows.take(rows, axis=0)
            targets = target_rows.take(rows, axis=0)
            for batch in batches:
                network.loss_and_gradients(
                    stack, X[:, batch], None, None, out=grad,
                    targets=targets[:, batch], with_loss=False)
                if dead is not None:
                    grad[dead] = 0.0
                try:
                    solver.step(params, grads)
                except NumericFaultError:
                    # step raised before changing any state
                    fault = ~np.all(np.isfinite(grad), axis=1)
                    dead = fault if dead is None else dead | fault
                    if dead.all():
                        return ~dead
                    grad[dead] = 0.0
                    stack.flat[dead] = 0.0
                    solver.step(params, grads)
    alive = np.all(np.isfinite(stack.flat), axis=1)
    return alive if dead is None else alive & ~dead
