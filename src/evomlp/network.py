"""Feed-forward classifier with mask-concealed inputs.

Missing features are zeroed by an element-wise product with a binary mask
before the first hidden layer, so they contribute nothing to the first
activations while observed features pass through unchanged. Deeper layers
are ordinary affine + rectifier, the output layer is affine + softmax.

A network keeps all of its parameters in one contiguous vector, `flat`;
its weight matrices and bias vectors are reshaped views into it. A
solver trains the network by updating `flat` in place against a gradient
vector of the same layout, which `loss_and_gradients` can fill. The
views a gradient call reads besides those (transposed weights, biases
with a batch axis) are made once per net, and the loss is computed only
when a caller asks for it: training takes the gradients alone, from
one-hot targets its fold split made once.

Cross-validation trains k nets of one architecture at once as a stack:
one (k, P) buffer with net i in row i, whose weights are (k, fan_in,
fan_out) views. `loss_and_gradients` takes a stack and a (k, B, p) batch
and runs each matmul as one batched call, so Python pays its per-call
overhead once per mini-batch instead of k times, while each net's
arithmetic is the one it would do alone: the same BLAS call on the same
operands, reductions only within its own batch. All nets of a stacked
call therefore need batches of one length B. A batch is never padded to
make lengths agree: a padding row, even with zero weight, changes the
inner dimension of the weight-gradient matmul and with it how BLAS
accumulates, so the gradient bits would change. `init_stack` writes the
initial weights of each row into the stack's buffer directly, and
`predict` scores every net of a stack in one call.
"""

import math

import numpy as np

from .data import CLASS_NAMES

N_OUTPUTS = len(CLASS_NAMES)


class MaskedMLP:
    """Weights/biases for hidden layers plus the output layer, as views
    into one parameter buffer; init_network and init_stack make nets.

    `flat` holds [W1, b1, W2, b2, ..., W_out, b_out] back to back, each
    matrix row-major; `weights`, `biases` and `params` (the interleaved
    list) are views into it, so writing through any of them writes
    `flat`. Gradient lists from loss_and_gradients align with `params`.

    A stack of k nets of one architecture has a `flat` of shape (k, P),
    one net per row, and every weight and bias view gains a leading axis
    of length k; `row(i)` is net i as views into row i.
    """

    def __init__(self, layout, flat):
        """A net over flat, laid out as `_layout` gives, without copying
        it."""
        self._layout = layout
        self.flat = flat
        self._unflattened = (None, [])
        self.params = self.unflatten(flat)
        self.weights = self.params[0::2]
        self.biases = self.params[1::2]
        # what loss_and_gradients reads on every call: the biases with a
        # batch axis and the transposed weights
        self._batch_biases = [b[..., np.newaxis, :] for b in self.biases]
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]

    def row(self, i):
        """Net i of a stack, as views into row i of the stack's buffer."""
        return MaskedMLP(self._layout, self.flat[i])

    def unflatten(self, vec):
        """Views of a buffer laid out like `flat`, ordered like params.

        The views of the last buffer asked for are kept, since training
        asks for those of one gradient buffer on every mini-batch."""
        if self._unflattened[0] is not vec:
            lead = vec.shape[:-1]
            self._unflattened = (vec, [vec[..., start:stop].reshape(
                lead + shape) for start, stop, shape in self._layout])
        return list(self._unflattened[1])

    @property
    def input_dim(self):
        return self.weights[0].shape[-2]


def _layout(sizes):
    """(start, stop, shape) in `flat` of W1, b1, W2, b2, ... for a net
    with layer widths sizes = [input_dim, hidden..., N_OUTPUTS]."""
    layout, start = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        layout.append((start, start + fan_in * fan_out, (fan_in, fan_out)))
        start += fan_in * fan_out
        layout.append((start, start + fan_out, (fan_out,)))
        start += fan_out
    return layout


def init_stack(hidden_layer_sizes, input_dim, seeds):
    """A stack of len(seeds) nets, row i initialised from seeds[i] (a
    seed or a Generator): weights uniform in +-sqrt(6/fan_in), layer by
    layer from one stream per row, biases zero.

    Each row draws its uniforms u straight into its weights, and each
    layer then maps the draws of every row at once with rng.uniform's
    own arithmetic, low + (high - low) * u, so the weights are the bits
    of one rng.uniform call per layer and row."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    sizes = [int(input_dim)] + [int(s) for s in hidden_layer_sizes] \
        + [N_OUTPUTS]
    layout = _layout(sizes)
    stack = MaskedMLP(layout, np.zeros((len(seeds), layout[-1][1])))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for w in stack.weights:
            rng.random(out=w[row])
    for w, fan_in in zip(stack.weights, sizes):
        limit = math.sqrt(6.0 / fan_in)
        w *= limit - -limit
        w += -limit
    return stack


def init_network(hidden_layer_sizes, input_dim, seed):
    """Seeded init: weights uniform in +-sqrt(6/fan_in), biases zero."""
    return init_stack(hidden_layer_sizes, input_dim, [seed]).row(0)


def one_hot(y):
    """Float one-hot rows of integer labels: shape y.shape + (N_OUTPUTS,)."""
    return (np.asarray(y, dtype=int)[..., np.newaxis]
            == np.arange(N_OUTPUTS)).astype(float)


def mask_input(x, m):
    """Element-wise product x * m: masked entries zeroed, observed kept."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    if x.shape != m.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs mask {m.shape}")
    return x * m


def _row_max(z):
    """Each row's maximum, shape (..., 1), as a chain of elementwise
    maxima over the few classes: cheaper than a reduction along the last
    axis, and as exact (only the sign of a zero maximum may differ, and
    no shift by it can show that: x - 0.0 == x - -0.0 unless x is a
    zero, and exp maps either zero to 1)."""
    top = z[..., :1].copy()
    for c in range(1, z.shape[-1]):
        np.maximum(top, z[..., c:c + 1], out=top)
    return top


def _softmax(z):
    z = z - _row_max(z)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_batch(net, X, M=None):
    """Class-score rows (softmax-normalized) for a batch.

    M=None means a dense evaluation; an all-ones mask gives the
    bit-identical result. For a stack of k nets X is (k, n, p), net i
    scores batch i, and each net gets the bits it would get alone.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a = X if M is None else mask_input(X, np.atleast_2d(M))
    if a.shape[-1] != net.input_dim:
        raise ValueError(
            f"input dim {a.shape[-1]} does not match network {net.input_dim}")
    for w, b in zip(net.weights[:-1], net._batch_biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return _softmax(a @ net.weights[-1] + net._batch_biases[-1])


def forward(net, x, m=None):
    """Single-sample scores, length N_OUTPUTS, summing to 1."""
    return forward_batch(net, x, None if m is None else np.atleast_2d(m))[0]


def predict(net, X, M=None):
    """Predicted labels of the rows of X (per net for a stack)."""
    return np.argmax(forward_batch(net, X, M), axis=-1)


def loss_and_gradients(net, X, M, y, out=None, targets=None,
                       with_loss=True):
    """Mean cross-entropy over the batch and exact gradients.

    Returns (loss, grads) with grads ordered like net.params. The
    gradients are written into `out`, a buffer laid out like net.flat
    (a fresh one when None), and grads are views into it. `targets` are
    the labels y as one_hot rows; training passes the ones its fold split
    made once, and y may then be None. With with_loss=False the loss is
    not computed and comes back as None; the gradients are the same.

    For a stack of k nets, X and M are (k, B, p) and y is (k, B): net i
    sees batch i, the loss is one value per net and each gradient row
    is that net's own. The matmuls are batched, one BLAS call per net
    with the same operands as the net alone, and every reduction runs
    within one net's batch, so each net gets the bits it would get by
    itself. A single net is the unstacked case of the same code.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[np.newaxis]
    n = X.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if targets is None:
        targets = one_hot(y)
    a = X if M is None else mask_input(X, np.atleast_2d(M))

    # forward, caching pre/post activations for the backward pass
    activations = [a]
    pre = []
    for w, b in zip(net.weights[:-1], net._batch_biases[:-1]):
        z = np.matmul(activations[-1], w)
        z += b
        pre.append(z)
        activations.append(np.maximum(z, 0.0))
    log_probs = np.matmul(activations[-1], net.weights[-1])
    log_probs += net._batch_biases[-1]

    log_probs -= _row_max(log_probs)
    delta = np.exp(log_probs)
    log_probs -= np.log(np.add.reduce(delta, axis=-1, keepdims=True))
    loss = None
    if with_loss:
        loss = -log_probs[targets > 0].reshape(targets.shape[:-1]) \
            .mean(axis=-1)

    np.exp(log_probs, out=delta)
    delta -= targets  # x - 0.0 == x, so only the target entries move
    delta /= n

    grads = net.unflatten(np.empty_like(net.flat) if out is None else out)
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[layer].swapaxes(-1, -2), delta,
                  out=grads[2 * layer])
        np.add.reduce(delta, axis=-2, out=grads[2 * layer + 1])
        if layer > 0:
            delta = np.matmul(delta, net._weights_t[layer])
            delta *= pre[layer - 1] > 0
    return loss, grads
