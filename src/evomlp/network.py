"""Feed-forward classifier with mask-concealed inputs.

Missing features are zeroed by an element-wise product with a binary mask
before the first hidden layer, so they contribute nothing to the first
activations while observed features pass through unchanged. Deeper layers
are ordinary affine + rectifier, the output layer is affine + softmax.

A network keeps all of its parameters in one contiguous vector, `flat`;
its weight matrices and bias vectors are reshaped views into it. A
solver trains the network by updating `flat` in place against a gradient
vector of the same layout, which `loss_and_gradients` can fill.
"""

import numpy as np


class MaskedMLP:
    """Weights/biases for hidden layers plus the output layer.

    `flat` holds [W1, b1, W2, b2, ..., W_out, b_out] back to back, each
    matrix row-major; `weights`, `biases` and `params` (the interleaved
    list) are views into it, so writing through any of them writes
    `flat`. Gradient lists from loss_and_gradients align with `params`.
    The constructor copies the given arrays into a fresh `flat`.
    """

    def __init__(self, weights, biases, solver_meta=None):
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up")
        for wa, wb in zip(weights, weights[1:]):
            if wa.shape[1] != wb.shape[0]:
                raise ValueError(
                    f"layer shapes do not chain: {wa.shape} -> {wb.shape}")
        self._layout, start = [], 0  # (start, stop, shape) per tensor
        for w in weights:
            for shape in (w.shape, (w.shape[1],)):
                stop = start + int(np.prod(shape))
                self._layout.append((start, stop, shape))
                start = stop
        self.flat = np.empty(start)
        self._unflattened = (None, [])
        self.params = self.unflatten(self.flat)
        self.weights = self.params[0::2]
        self.biases = self.params[1::2]
        given = [t for pair in zip(weights, biases) for t in pair]
        for view, value in zip(self.params, given):
            view[...] = value
        self.solver_meta = solver_meta

    def unflatten(self, vec):
        """Views of a vector laid out like `flat`, ordered like params.

        The views of the last vector asked for are kept, since training
        asks for those of one gradient vector on every mini-batch."""
        if self._unflattened[0] is not vec:
            self._unflattened = (vec, [vec[start:stop].reshape(shape)
                                       for start, stop, shape
                                       in self._layout])
        return list(self._unflattened[1])

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def n_outputs(self):
        return self.weights[-1].shape[1]

    @property
    def hidden_layer_sizes(self):
        return tuple(w.shape[1] for w in self.weights[:-1])

    def to_dict(self):
        return {
            "input_dim": int(self.input_dim),
            "hidden_layer_sizes": [int(s) for s in self.hidden_layer_sizes],
            "n_outputs": int(self.n_outputs),
            "solver": self.solver_meta,
            "weights": [w.ravel(order="C").tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d):
        sizes = [d["input_dim"]] + list(d["hidden_layer_sizes"]) \
            + [d["n_outputs"]]
        weights = [
            np.array(flat, dtype=float).reshape(sizes[i], sizes[i + 1])
            for i, flat in enumerate(d["weights"])
        ]
        biases = [np.array(b, dtype=float) for b in d["biases"]]
        return cls(weights, biases, solver_meta=d.get("solver"))


def init_network(hidden_layer_sizes, input_dim, seed, n_outputs=3,
                 solver_meta=None):
    """Seeded init: weights uniform in +-sqrt(6/fan_in), biases zero."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = [int(input_dim)] + [int(s) for s in hidden_layer_sizes] \
        + [int(n_outputs)]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MaskedMLP(weights, biases, solver_meta=solver_meta)


def mask_input(x, m):
    """Element-wise product x * m: masked entries zeroed, observed kept."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    if x.shape != m.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs mask {m.shape}")
    return x * m


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_batch(net, X, M=None):
    """Class-score rows (softmax-normalized) for a batch.

    M=None means a dense evaluation; an all-ones mask gives the
    bit-identical result.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a = X if M is None else mask_input(X, np.atleast_2d(M))
    if a.shape[1] != net.input_dim:
        raise ValueError(
            f"input dim {a.shape[1]} does not match network {net.input_dim}")
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return _softmax(a @ net.weights[-1] + net.biases[-1])


def forward(net, x, m=None):
    """Single-sample scores, length n_outputs, summing to 1."""
    return forward_batch(net, x, None if m is None else np.atleast_2d(m))[0]


def predict(net, X, M=None):
    return np.argmax(forward_batch(net, X, M), axis=1)


def loss_and_gradients(net, X, M, y, out=None):
    """Mean cross-entropy over the batch and exact gradients.

    Returns (loss, grads) with grads ordered like net.params. The
    gradients are written into `out`, a vector laid out like net.flat
    (a fresh one when None), and grads are views into it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    a = X if M is None else mask_input(X, np.atleast_2d(M))

    # forward, caching pre/post activations for the backward pass
    activations = [a]
    pre = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = activations[-1] @ w + b
        pre.append(z)
        activations.append(np.maximum(z, 0.0))
    logits = activations[-1] @ net.weights[-1] + net.biases[-1]

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    n = X.shape[0]
    loss = -log_probs[np.arange(n), y].mean()

    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads = net.unflatten(np.empty_like(net.flat) if out is None else out)
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=grads[2 * layer])
        delta.sum(axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (pre[layer - 1] > 0)
    return loss, grads
