"""The 10 gradient-update rules a solver gene can select.

Each rule follows its original formulation and reads only the
hyperparameters its class declares in CONSUMED; everything else in the
genome is ignored for that solver. RULES is the one table of rules: a
solver id is 1 + the rule's position in it.

A solver is built for a list of tensor shapes and updates a list of
parameter tensors of those shapes in place. Training passes a single
tensor, the network's flat parameter vector (see network.MaskedMLP), so
one step is one finiteness check and one pass of the rule over every
parameter. Each rule names its per-tensor state arrays (moments,
accumulators, momentum buffers) in SLOTS, and the base class allocates
them, zeroed and shaped like the trained parameters, plus SCRATCH work
arrays per tensor. The Adam family (Adam, AdamW, Adamax, NAdam, RAdam)
shares one prologue, which decays the gradient and moves m and v, and
each member writes only its own final step; SGD and RMSprop share one
momentum step. Every update is written with in-place ufuncs into the
state and scratch arrays, so the rule allocates no parameter-sized
temporary (Rprop's indexed updates allocate at most a chunk) and a step
never writes into the gradients it is given. Each in-place form keeps
the order of every floating-point operation of the rule's expression (up
to swapping the operands of a product or a sum), so it gives the same
bits.
"""
import math
from dataclasses import dataclass, field

import numpy as np

EPS = 1e-8
ADADELTA_EPS = 1e-6  # 1e-8 takes hundreds of steps to leave the start


class NumericFaultError(FloatingPointError):
    """Raised when a gradient tensor contains non-finite values."""


@dataclass(frozen=True)
class SolverSpec:
    solver_id: int
    params: dict = field(default_factory=dict)


def consumed_parameters(solver_id):
    """The exact hyperparameter subset the rule reads."""
    try:
        return CONSUMED[solver_id]
    except KeyError:
        raise ValueError(f"unknown solver id {solver_id}") from None


def make_solver(spec, param_shapes):
    """Build a zero-initialized solver state for the given tensor shapes.

    spec.params must contain exactly the consumed parameters for the id.
    """
    consumed = consumed_parameters(spec.solver_id)
    rule = RULES[spec.solver_id - 1]
    if set(spec.params) != consumed:
        raise ValueError(f"{rule.__name__} expects params {sorted(consumed)}"
                         f", got {sorted(spec.params)}")
    return rule(spec.params, [tuple(s) for s in param_shapes])


def _check_grads(grads):
    """Raise NumericFaultError unless every gradient entry is finite.

    A finite sum proves every entry finite, so the entries themselves
    are checked only when a sum is not (it may just have overflowed)."""
    for i, g in enumerate(grads):
        if (not math.isfinite(np.add.reduce(g, axis=None))
                and not np.isfinite(g).all()):
            raise NumericFaultError(f"non-finite gradient for tensor {i}")


def _ema(avg, decay, x, tmp):
    """avg = decay * avg + (1 - decay) * x, in place."""
    avg *= decay
    np.multiply(x, 1 - decay, out=tmp)
    avg += tmp


def _ema_sq(avg, decay, x, tmp):
    """avg = decay * avg + (1 - decay) * x * x, in place."""
    avg *= decay
    np.multiply(x, 1 - decay, out=tmp)
    tmp *= x
    avg += tmp


def _running_max(avg, decay, x, tmp):
    """avg = max(decay * avg, |x|), in place."""
    avg *= decay
    np.abs(x, out=tmp)
    np.maximum(avg, tmp, out=avg)


def _adaptive_update(w, step, v, v_scale, tmp):
    """w -= step / (sqrt(v / v_scale) + EPS); step is overwritten."""
    np.divide(v, v_scale, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPS
    step /= tmp
    w -= step


def _momentum_update(w, d, buf, momentum, lr, out):
    """w -= lr * buf with buf = momentum * buf + d, in place; w -= lr * d
    when there is no momentum. out may be d."""
    if momentum:
        buf *= momentum
        buf += d
        d = buf
    np.multiply(d, lr, out=out)
    w -= out


class _SolverState:
    """Shared step-counting, state, scratch and weight-decay plumbing."""

    SLOTS = ()  # per-tensor state arrays of the rule, zero at the start
    SCRATCH = 2  # work arrays per tensor that the rule's _apply receives

    def __init__(self, params, shapes):
        self.p = dict(params)
        # the genome's closed [0.8, 1] interval admits beta = 1 exactly,
        # which would zero the bias-correction denominators
        for key in ("beta1", "beta2"):
            if key in self.p:
                self.p[key] = min(self.p[key], 1.0 - 1e-8)
        self.t = 0
        for name in self.SLOTS:
            setattr(self, name, [np.zeros(s) for s in shapes])
        self.scratch = [tuple(np.empty(s) for _ in range(self.SCRATCH))
                        for s in shapes]

    def _decayed(self, param, grad, out):
        """grad + weight_decay * param, written into out; grad itself
        when there is no decay."""
        wd = self.p.get("weight_decay", 0.0)
        if wd:
            np.multiply(param, wd, out=out)
            out += grad
            return out
        return grad

    def _advance(self):
        """Per-step scalars shared by every tensor, after t moves on."""

    def step(self, params, grads):
        """Apply one update in place; returns params for chaining."""
        _check_grads(grads)
        self.t += 1
        self._advance()
        for i, (w, g) in enumerate(zip(params, grads)):
            self._apply(i, w, np.asarray(g, dtype=float), *self.scratch[i])
        return params


class _Moments(_SolverState):
    """The Adam family: each rule decays the gradient, moves the first
    moment m and the second statistic v, then takes its own _step."""

    CONSUMED = frozenset({"learning_rate", "beta1", "beta2", "weight_decay"})
    SLOTS = ("m", "v")
    _second = staticmethod(_ema_sq)  # how v follows the gradient

    def _apply(self, i, w, g, s1, s2):
        g = self._decayed(w, g, s1)
        _ema(self.m[i], self.p["beta1"], g, s2)
        self._second(self.v[i], self.p["beta2"], g, s2)
        self._step(i, w, g, s1, s2)

    def _adam_step(self, i, w, lr, s1, s2):
        """w -= lr * m_hat / (sqrt(v_hat) + EPS), bias-corrected."""
        np.divide(self.m[i], 1 - self.p["beta1"] ** self.t, out=s1)
        s1 *= lr
        _adaptive_update(w, s1, self.v[i], 1 - self.p["beta2"] ** self.t, s2)


class Adam(_Moments):
    def _step(self, i, w, g, s1, s2):
        self._adam_step(i, w, self.p["learning_rate"], s1, s2)


class Adadelta(_SolverState):
    """"rho" is the decay of both running averages."""

    CONSUMED = frozenset({"learning_rate", "rho", "weight_decay"})
    SLOTS = ("sq_avg", "acc_delta")

    def _apply(self, i, w, g, s1, s2):
        lr, rho = self.p["learning_rate"], self.p["rho"]
        g = self._decayed(w, g, s1)
        _ema_sq(self.sq_avg[i], rho, g, s2)
        # delta = g * sqrt(acc_delta + eps) / sqrt(sq_avg + eps), into s2
        np.add(self.acc_delta[i], ADADELTA_EPS, out=s2)
        np.sqrt(s2, out=s2)
        s2 *= g
        np.add(self.sq_avg[i], ADADELTA_EPS, out=s1)
        np.sqrt(s1, out=s1)
        s2 /= s1
        _ema_sq(self.acc_delta[i], rho, s2, s1)
        s2 *= lr
        w -= s2


class AdamW(Adam):
    """Adam with the weight decay decoupled from the moments."""

    def _decayed(self, param, grad, out):
        """Shrinks param by lr * weight_decay; grad is left as it is."""
        wd = self.p["weight_decay"]
        if wd:
            param *= 1 - self.p["learning_rate"] * wd
        return grad


class Adamax(_Moments):
    """Adam's infinity-norm variant: v is a running max of |g|."""

    _second = staticmethod(_running_max)

    def _step(self, i, w, g, s1, s2):
        np.multiply(self.m[i], self.p["learning_rate"]
                    / (1 - self.p["beta1"] ** self.t), out=s1)
        np.add(self.v[i], EPS, out=s2)
        s1 /= s2
        w -= s1


class ASGD(_SolverState):
    """SGD with a decaying step and a shrink of the weights, as in
    averaged SGD. Training and scoring use the current iterate, so the
    Polyak average of the iterates is not kept."""

    # "lambda" is the decay term of the step size and of the shrink
    CONSUMED = frozenset({"learning_rate", "lambda", "weight_decay"})
    ALPHA = 0.75
    SCRATCH = 1

    def _apply(self, i, w, g, s1):
        lr, lam = self.p["learning_rate"], self.p["lambda"]
        g = self._decayed(w, g, s1)
        # the step-size schedule lags one step: the first update uses lr
        eta = lr / (1 + lam * lr * (self.t - 1)) ** self.ALPHA
        w *= 1 - lam * eta
        np.multiply(g, eta, out=s1)
        w -= s1


class NAdam(_Moments):
    """Adam with Nesterov momentum; "lambda" is the momentum-decay rate."""

    CONSUMED = _Moments.CONSUMED | {"lambda"}

    def __init__(self, params, shapes):
        super().__init__(params, shapes)
        self.mu_prod = 1.0

    def _advance(self):
        b1, psi = self.p["beta1"], self.p["lambda"]
        self.mu_t = b1 * (1 - 0.5 * 0.96 ** (self.t * psi))
        self.mu_next = b1 * (1 - 0.5 * 0.96 ** ((self.t + 1) * psi))
        self.mu_prod *= self.mu_t

    def _step(self, i, w, g, s1, s2):
        # m_hat = mu_next * m / (1 - mu_prod * mu_next)
        #         + (1 - mu_t) * g / (1 - mu_prod), into s2
        np.multiply(g, 1 - self.mu_t, out=s1)
        s1 /= 1 - self.mu_prod
        np.multiply(self.m[i], self.mu_next, out=s2)
        s2 /= 1 - self.mu_prod * self.mu_next
        s2 += s1
        s2 *= self.p["learning_rate"]
        _adaptive_update(w, s2, self.v[i], 1 - self.p["beta2"] ** self.t, s1)


class RAdam(_Moments):
    """Rectified Adam: falls back to un-adapted steps while the variance
    estimate is untrustworthy (rho_t <= 5, as in the reference code)."""

    def _step(self, i, w, g, s1, s2):
        lr, b1, b2 = self.p["learning_rate"], self.p["beta1"], self.p["beta2"]
        rho_inf = 2 / (1 - b2) - 1
        rho_t = rho_inf - 2 * self.t * b2 ** self.t / (1 - b2 ** self.t)
        if rho_t > 5:
            r = np.sqrt((rho_t - 4) * (rho_t - 2) * rho_inf
                        / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
            self._adam_step(i, w, lr * r, s1, s2)
        else:
            np.divide(self.m[i], 1 - b1 ** self.t, out=s1)
            s1 *= lr
            w -= s1


class RMSprop(_SolverState):
    """"rho" acts as the squared-gradient smoothing constant here."""

    CONSUMED = frozenset({"learning_rate", "rho", "momentum", "weight_decay"})
    SLOTS = ("sq_avg", "buf")

    def _apply(self, i, w, g, s1, s2):
        g = self._decayed(w, g, s1)
        _ema_sq(self.sq_avg[i], self.p["rho"], g, s2)
        np.sqrt(self.sq_avg[i], out=s2)
        s2 += EPS
        np.divide(g, s2, out=s1)
        _momentum_update(w, s1, self.buf[i], self.p["momentum"],
                         self.p["learning_rate"], s1)


class Rprop(_SolverState):
    """Sign-based updates with per-weight step sizes; the learning-rate
    gene sets the initial step.

    Where prev * g > 0 the step grows by ETA_PLUS up to STEP_MAX; where
    it is < 0 the step shrinks by ETA_MINUS down to STEP_MIN, and the
    weight's update is skipped and its gradient forgotten. Only those
    weights change their step, and they are often few (a dead unit
    leaves its gradients zero), so a step finds them by index, CHUNK
    weights at a time, and updates only them: no masked ufunc, and no
    temporary longer than a chunk."""

    CONSUMED = frozenset({"learning_rate"})
    SLOTS = ("prev_grad",)
    ETA_PLUS = 1.2
    ETA_MINUS = 0.5
    STEP_MIN = 1e-6
    STEP_MAX = 50.0
    CHUNK = 1 << 16
    SCRATCH = 1

    def __init__(self, params, shapes):
        super().__init__(params, shapes)
        self.step_size = [np.full(s, params["learning_rate"]) for s in shapes]

    def _apply(self, i, w, g, s1):
        step, prev = self.step_size[i], self.prev_grad[i]
        np.multiply(prev, g, out=s1)
        np.copyto(prev, g)
        # views of the state and scratch arrays, which are contiguous
        steps, prevs, products = (a.reshape(-1) for a in (step, prev, s1))
        for start in range(0, products.size, self.CHUNK):
            chunk = products[start:start + self.CHUNK]
            changed = np.flatnonzero(chunk)
            if changed.size:
                product = chunk[changed]
                changed += start
                grew, shrank = changed[product > 0], changed[product < 0]
                steps[grew] = np.minimum(steps[grew] * self.ETA_PLUS,
                                         self.STEP_MAX)
                steps[shrank] = np.maximum(steps[shrank] * self.ETA_MINUS,
                                           self.STEP_MIN)
                prevs[shrank] = 0.0
        np.sign(prev, out=s1)
        s1 *= step
        w -= s1


class SGD(_SolverState):
    CONSUMED = frozenset({"learning_rate", "momentum", "weight_decay"})
    SLOTS = ("buf",)
    SCRATCH = 1

    def _apply(self, i, w, g, s1):
        _momentum_update(w, self._decayed(w, g, s1), self.buf[i],
                         self.p["momentum"], self.p["learning_rate"], s1)


RULES = (Adam, Adadelta, AdamW, Adamax, ASGD, NAdam, RAdam, RMSprop, Rprop,
         SGD)
SOLVER_NAMES = {sid: rule.__name__ for sid, rule in enumerate(RULES, 1)}
CONSUMED = {sid: rule.CONSUMED for sid, rule in enumerate(RULES, 1)}
