import numpy as np
import pytest

from evomlp.network import (MaskedMLP, _row_max, _softmax, forward,
                            forward_batch, init_network, init_stack,
                            loss_and_gradients, mask_input, one_hot, predict)


def _random_case(rng, max_hidden_layers=3, max_neurons=16,
                 jitter_biases=False):
    p = int(rng.integers(2, 8))
    n_layers = int(rng.integers(1, max_hidden_layers + 1))
    sizes = [int(rng.integers(1, max_neurons + 1)) for _ in range(n_layers)]
    net = init_network(sizes, p, seed=int(rng.integers(1 << 31)))
    if jitter_biases:
        # keep rectifier pre-activations away from the kink at exactly 0,
        # where central differences straddle the non-differentiability
        for b in net.biases:
            b += rng.uniform(-0.5, 0.5, size=b.shape)
    n = int(rng.integers(2, 6))
    X = rng.normal(size=(n, p))
    M = (rng.random((n, p)) > 0.3).astype(float)
    y = rng.integers(0, 3, size=n)
    return net, X, M, y


def test_mask_input_examples():
    assert np.array_equal(mask_input([1, 2, 3], [1, 1, 1]), [1, 2, 3])
    assert np.array_equal(mask_input([1, 2, 3], [1, 0, 1]), [1, 0, 3])
    assert np.array_equal(mask_input([1, 2, 3], [0, 0, 0]), [0, 0, 0])


def test_mask_input_shape_mismatch():
    with pytest.raises(ValueError):
        mask_input([1, 2, 3], [1, 0])


def test_zero_network_gives_uniform_scores():
    net = init_network([4], 3, seed=0)
    for w in net.weights:
        w[:] = 0.0
    scores = forward(net, [1.0, -2.0, 0.5], [1, 1, 1])
    assert np.allclose(scores, [1 / 3, 1 / 3, 1 / 3])


def test_masked_entries_cannot_influence_output():
    rng = np.random.default_rng(7)
    net, X, M, _ = _random_case(rng)
    x, m = X[0], M[0]
    baseline = forward(net, x, m)
    for _ in range(20):
        noise = rng.normal(size=x.size) * 100
        perturbed = np.where(m == 0, x + noise, x)
        assert np.array_equal(forward(net, perturbed, m), baseline)


def test_forward_equals_forward_of_masked_input():
    rng = np.random.default_rng(8)
    for _ in range(20):
        net, X, M, _ = _random_case(rng)
        a = forward_batch(net, X, M)
        b = forward_batch(net, X * M, M)
        assert np.array_equal(a, b)


def test_all_ones_mask_is_dense_evaluation():
    rng = np.random.default_rng(9)
    net, X, _, _ = _random_case(rng)
    ones = np.ones_like(X)
    assert np.array_equal(forward_batch(net, X, ones),
                          forward_batch(net, X, None))


def test_hand_traced_single_neuron():
    # 1 input -> 1 rectifier neuron (w=1, b=0) -> outputs (1,0,0) row
    net = MaskedMLP(
        weights=[np.array([[1.0]]), np.array([[1.0, 0.0, 0.0]])],
        biases=[np.zeros(1), np.zeros(3)],
    )
    scores = forward(net, [2.0], [1.0])
    expected = np.exp([2.0, 0.0, 0.0])
    expected /= expected.sum()
    assert np.allclose(scores, expected)


def test_scores_normalized():
    rng = np.random.default_rng(10)
    for _ in range(30):
        net, X, M, _ = _random_case(rng)
        scores = forward_batch(net, X, M)
        assert np.all(scores >= 0)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_loss_near_zero_for_confident_correct_net():
    net = init_network([4], 2, seed=3)
    X = np.array([[5.0, 0.0], [0.0, 5.0]])
    M = np.ones_like(X)
    y = np.array([0, 1])
    # crank the output layer toward the right classes
    for _ in range(2000):
        _, grads = loss_and_gradients(net, X, M, y)
        for p, g in zip(net.params, grads):
            p -= 0.5 * g
    loss, grads = loss_and_gradients(net, X, M, y)
    assert loss < 1e-3
    assert max(np.abs(g).max() for g in grads) < 1e-3


def test_duplicated_batch_keeps_mean_loss():
    rng = np.random.default_rng(11)
    net, X, M, y = _random_case(rng)
    loss1, _ = loss_and_gradients(net, X, M, y)
    loss2, _ = loss_and_gradients(net, np.vstack([X, X]),
                                  np.vstack([M, M]),
                                  np.concatenate([y, y]))
    assert loss1 == pytest.approx(loss2, rel=1e-12)


def test_empty_batch_rejected():
    net = init_network([4], 3, seed=0)
    with pytest.raises(ValueError):
        loss_and_gradients(net, np.zeros((0, 3)), np.zeros((0, 3)),
                           np.zeros(0, dtype=int))


def _reference_loss(net, X, M, y):
    """Independent re-implementation of the forward loss; also returns
    the rectifier on/off pattern so kink crossings can be detected."""
    a = X * M
    signs = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w + b
        signs.append(z > 0)
        a = z * (z > 0)
    z = a @ net.weights[-1] + net.biases[-1]
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(X.shape[0]), y].mean()
    return loss, signs


def finite_difference_worst_error(net, X, M, y, step=1e-5):
    """Max relative error of analytic gradients vs central differences.

    Coordinates whose +-step evaluations land on different rectifier
    patterns are skipped: the loss is not differentiable across a kink,
    so no finite-difference oracle exists there.
    """
    _, grads = loss_and_gradients(net, X, M, y)
    worst = 0.0
    for p, g in zip(net.params, grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for j in range(flat_p.size):
            keep = flat_p[j]
            flat_p[j] = keep + step
            up, signs_up = _reference_loss(net, X, M, y)
            flat_p[j] = keep - step
            down, signs_down = _reference_loss(net, X, M, y)
            flat_p[j] = keep
            if any(not np.array_equal(a, b)
                   for a, b in zip(signs_up, signs_down)):
                continue
            numeric = (up - down) / (2 * step)
            # floor above the ~5e-12 cancellation noise of the central
            # difference itself, so near-zero entries compare absolutely
            scale = max(abs(numeric), abs(flat_g[j]), 1e-6)
            worst = max(worst, abs(numeric - flat_g[j]) / scale)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(10):
        net, X, M, y = _random_case(rng, max_neurons=6,
                                    jitter_biases=True)
        assert finite_difference_worst_error(net, X, M, y) <= 1e-4


def test_init_shapes_follow_architecture():
    net = init_network([302, 11], 32, seed=1)
    assert [w.shape for w in net.weights] == [(32, 302), (302, 11),
                                              (11, 3)]
    assert [b.shape for b in net.biases] == [(302,), (11,), (3,)]


def test_init_is_seeded_and_biases_zero():
    a = init_network([5, 4], 6, seed=42)
    b = init_network([5, 4], 6, seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for bias in a.biases:
        assert np.all(bias == 0)
    limit = np.sqrt(6.0 / 6)
    assert np.all(np.abs(a.weights[0]) <= limit)


def test_serialization_round_trip():
    net = init_network([7, 3], 5, seed=13,
                       solver_meta={"solver_id": 9, "name": "Rprop"})
    net.flat += np.random.default_rng(1).normal(size=net.flat.size)
    clone = MaskedMLP.from_dict(net.to_dict())
    assert np.array_equal(net.flat, clone.flat)
    for wa, wb in zip(net.weights, clone.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(net.biases, clone.biases):
        assert np.array_equal(ba, bb)
    assert clone.solver_meta == {"solver_id": 9, "name": "Rprop"}
    X = np.random.default_rng(0).normal(size=(4, 5))
    assert np.array_equal(predict(net, X), predict(clone, X))


def test_shape_mismatch_raises():
    net = init_network([4], 3, seed=0)
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0], [1, 1])
    with pytest.raises(ValueError):
        MaskedMLP(weights=[np.zeros((3, 4)), np.zeros((5, 3))],
                  biases=[np.zeros(4), np.zeros(3)])


def test_weights_and_biases_alias_flat():
    net = init_network([5, 4], 3, seed=2)
    assert net.flat.size == sum(p.size for p in net.params)
    for p in net.params:
        assert np.shares_memory(p, net.flat)
    net.flat[:] = np.arange(net.flat.size)
    # layout [W1, b1, W2, b2, W3, b3], each matrix row-major
    assert np.array_equal(net.weights[0].ravel(), np.arange(15))
    assert np.array_equal(net.biases[0], np.arange(15, 20))
    net.biases[-1][:] = -1.0
    assert np.all(net.flat[-3:] == -1.0)


def test_gradients_written_into_buffer():
    rng = np.random.default_rng(5)
    net, X, M, y = _random_case(rng)
    loss, fresh = loss_and_gradients(net, X, M, y)
    out = np.full(net.flat.size, np.nan)
    again, views = loss_and_gradients(net, X, M, y, out=out)
    assert again == loss
    assert np.array_equal(out, np.concatenate([g.ravel() for g in fresh]))
    for v, g, p in zip(views, fresh, net.params):
        assert np.shares_memory(v, out)
        assert v.shape == g.shape == p.shape


def test_stacked_loss_and_gradients_match_each_net():
    rng = np.random.default_rng(21)
    for _ in range(30):
        k = int(rng.integers(1, 11))
        p, n = int(rng.integers(2, 12)), int(rng.integers(1, 40))
        hidden = [int(rng.integers(1, 60))
                  for _ in range(int(rng.integers(1, 4)))]
        nets = [init_network(hidden, p, seed=int(rng.integers(1 << 31)))
                for _ in range(k)]
        stack = MaskedMLP.stack(nets)
        X = rng.normal(size=(k, n, p))
        M = (rng.random((k, n, p)) > 0.3).astype(float)
        y = rng.integers(0, 3, size=(k, n))
        out = np.full(stack.flat.shape, np.nan)
        loss, grads = loss_and_gradients(stack, X, M, y, out=out)
        assert loss.shape == (k,)
        for i, net in enumerate(nets):
            own_loss, own = loss_and_gradients(net, X[i], M[i], y[i])
            assert loss[i] == own_loss
            for g, g_own in zip(grads, own):
                assert g.shape == (k,) + g_own.shape
                assert np.array_equal(g[i], g_own)
            assert np.array_equal(out[i], np.concatenate(
                [g.ravel() for g in own]))


def test_stack_rows_alias_the_stack_buffer():
    nets = [init_network([5, 4], 3, seed=s) for s in range(3)]
    stack = MaskedMLP.stack(nets)
    assert stack.flat.shape == (3, nets[0].flat.size)
    assert stack.hidden_layer_sizes == (5, 4) and stack.input_dim == 3
    for p in stack.params:
        assert np.shares_memory(p, stack.flat)
    for i, net in enumerate(nets):
        row = stack.row(i)
        assert np.array_equal(row.flat, net.flat)
        row.weights[0][0, 0] = 7.0
        assert stack.flat[i, 0] == 7.0 == stack.weights[0][i, 0, 0]
        assert net.weights[0][0, 0] != 7.0  # the stack holds a copy
    with pytest.raises(ValueError):
        MaskedMLP.stack([init_network([5], 3, seed=0),
                         init_network([4], 3, seed=0)])


def _drawn_one_by_one(hidden, p, seed):
    """Reference init: each layer drawn into its own array, then copied
    into a net, as init_network did before it drew into a stack."""
    rng = np.random.default_rng(seed)
    sizes = [p, *hidden, 3]
    weights = [rng.uniform(-np.sqrt(6.0 / a), np.sqrt(6.0 / a), size=(a, b))
               for a, b in zip(sizes, sizes[1:])]
    return MaskedMLP(weights, [np.zeros(b) for b in sizes[1:]])


def test_init_stack_rows_equal_init_network():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = int(rng.integers(1, 12))
        hidden = [int(rng.integers(1, 60))
                  for _ in range(int(rng.integers(1, 4)))]
        seeds = rng.integers(1 << 31, size=int(rng.integers(1, 6))).tolist()
        stack = init_stack(hidden, p, seeds)
        assert stack.flat.shape[0] == len(seeds)
        for i, seed in enumerate(seeds):
            assert np.array_equal(stack.flat[i],
                                  init_network(hidden, p, seed).flat)
            assert np.array_equal(stack.flat[i],
                                  _drawn_one_by_one(hidden, p, seed).flat)


def test_gradients_without_loss_equal_gradients_with_it():
    rng = np.random.default_rng(9)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        p, n = int(rng.integers(2, 10)), int(rng.integers(1, 40))
        hidden = [int(rng.integers(1, 40))
                  for _ in range(int(rng.integers(1, 4)))]
        stack = init_stack(hidden, p, rng.integers(1 << 31, size=k).tolist())
        X = rng.normal(size=(k, n, p))
        y = rng.integers(0, 3, size=(k, n))
        for net, X_, y_ in ((stack, X, y), (stack.row(0), X[0], y[0])):
            _, with_loss = loss_and_gradients(net, X_, None, y_)
            with_loss = [g.copy() for g in with_loss]
            loss, without = loss_and_gradients(
                net, X_, None, None, targets=one_hot(y_), with_loss=False)
            assert loss is None
            for a, b in zip(with_loss, without):
                assert np.array_equal(a, b)
            from_labels, _ = loss_and_gradients(net, X_, None, y_)
            from_targets, _ = loss_and_gradients(net, X_, None, None,
                                                 targets=one_hot(y_))
            assert np.array_equal(from_labels, from_targets)


def test_row_max_and_softmax_equal_the_reductions():
    rng = np.random.default_rng(12)
    for _ in range(200):
        shape = tuple(int(s) for s in rng.integers(1, 6, size=rng.integers(
            1, 4)))
        z = rng.normal(size=shape) * 30
        z[rng.random(shape) < 0.2] = 0.0
        z[rng.random(shape) < 0.2] = -0.0
        z[rng.random(shape) < 0.05] = -np.inf
        assert np.array_equal(_row_max(z), z.max(axis=-1, keepdims=True))
        with np.errstate(invalid="ignore"):
            shifted = z - z.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            assert np.array_equal(_softmax(z), e / e.sum(axis=-1,
                                                         keepdims=True),
                                  equal_nan=True)
