import math

import numpy as np
import pytest

from evomlp.genome import mid_range_hyper, selective_exclusion
from evomlp.solvers import (NumericFaultError, Rprop, SOLVER_NAMES,
                            SolverSpec, consumed_parameters, make_solver)


def _mid_solver(solver_id, shapes):
    params = selective_exclusion(solver_id, mid_range_hyper())
    return make_solver(SolverSpec(solver_id, params), shapes), params


def test_solver_name_table():
    assert SOLVER_NAMES[1] == "Adam"
    assert SOLVER_NAMES[9] == "Rprop"
    assert SOLVER_NAMES[10] == "SGD"
    assert len(SOLVER_NAMES) == 10


def test_consumed_parameters_examples():
    assert consumed_parameters(1) == {"learning_rate", "beta1", "beta2",
                                      "weight_decay"}
    assert consumed_parameters(2) == {"learning_rate", "rho",
                                      "weight_decay"}
    assert consumed_parameters(8) == {"learning_rate", "rho", "momentum",
                                      "weight_decay"}


def test_consumed_parameters_rejects_bad_id():
    with pytest.raises(ValueError):
        consumed_parameters(0)
    with pytest.raises(ValueError):
        consumed_parameters(99)


def test_make_solver_requires_exact_params():
    with pytest.raises(ValueError):
        make_solver(SolverSpec(1, {"learning_rate": 0.1}), [(2,)])
    extra = dict(selective_exclusion(10, mid_range_hyper()), rho=0.5)
    with pytest.raises(ValueError):
        make_solver(SolverSpec(10, extra), [(2,)])


def test_make_solver_initial_state():
    solver, _ = _mid_solver(1, [(2, 3), (3,)])
    assert solver.t == 0
    assert all(np.all(m == 0) for m in solver.m)
    assert all(np.all(v == 0) for v in solver.v)
    assert len(solver.m) == 2


def test_rprop_steps_start_at_learning_rate():
    solver, params = _mid_solver(9, [(4,)])
    assert np.all(solver.step_size[0] == params["learning_rate"])


def test_sgd_single_step():
    solver = make_solver(SolverSpec(10, {"learning_rate": 0.1,
                                         "momentum": 0.0,
                                         "weight_decay": 0.0}), [(1,)])
    w = np.array([0.0])
    solver.step([w], [np.array([1.0])])
    assert w[0] == pytest.approx(-0.1)


def test_adam_zero_gradient_fixed_point():
    solver = make_solver(SolverSpec(1, {"learning_rate": 0.5,
                                        "beta1": 0.9, "beta2": 0.999,
                                        "weight_decay": 0.0}), [(3,)])
    w = np.array([1.0, -2.0, 0.5])
    before = w.copy()
    solver.step([w], [np.zeros(3)])
    assert np.array_equal(w, before)


def test_rprop_sign_repeat_grows_step():
    # same-signed gradients: step *= 1.2, update opposes the gradient
    solver = make_solver(SolverSpec(9, {"learning_rate": 0.1}), [(1,)])
    w = np.array([1.0])
    solver.step([w], [np.array([2.0])])
    assert w[0] == pytest.approx(1.0 - 0.1)
    solver.step([w], [np.array([1.5])])
    assert solver.step_size[0][0] == pytest.approx(0.12)
    assert w[0] == pytest.approx(0.9 - 0.12)


def test_rprop_sign_flip_shrinks_step_and_skips_update():
    solver = make_solver(SolverSpec(9, {"learning_rate": 0.1}), [(1,)])
    w = np.array([1.0])
    solver.step([w], [np.array([2.0])])
    solver.step([w], [np.array([-2.0])])  # flip
    assert solver.step_size[0][0] == pytest.approx(0.05)
    assert w[0] == pytest.approx(0.9)  # no move on the flip step


def test_every_solver_descends_quadratic():
    # f(w) = w**2 from w = 1 with mid-range hyperparameters
    for solver_id in SOLVER_NAMES:
        solver, _ = _mid_solver(solver_id, [(1,)])
        w = np.array([1.0])
        best = 1.0
        for _ in range(500):
            solver.step([w], [2.0 * w])
            best = min(best, float(w[0] ** 2))
        assert best <= 0.01, (SOLVER_NAMES[solver_id], best)


def test_step_preserves_shapes():
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (4,), (4, 2), (2,)]
    for solver_id in SOLVER_NAMES:
        solver, _ = _mid_solver(solver_id, shapes)
        params = [rng.normal(size=s) for s in shapes]
        grads = [rng.normal(size=s) for s in shapes]
        solver.step(params, grads)
        assert [p.shape for p in params] == shapes


def test_zero_weight_decay_is_bitwise_no_decay():
    rng = np.random.default_rng(1)
    for solver_id in SOLVER_NAMES:
        consumed = consumed_parameters(solver_id)
        if "weight_decay" not in consumed:
            continue
        base = selective_exclusion(solver_id, mid_range_hyper())
        base["weight_decay"] = 0.0
        a = make_solver(SolverSpec(solver_id, dict(base)), [(5,)])
        b = make_solver(SolverSpec(solver_id, dict(base)), [(5,)])
        wa = rng.normal(size=5)
        wb = wa.copy()
        for _ in range(10):
            g = rng.normal(size=5)
            a.step([wa], [g.copy()])
            b.step([wb], [g.copy()])
        assert np.array_equal(wa, wb)


def test_non_finite_gradient_names_tensor():
    solver, _ = _mid_solver(1, [(2,), (2,)])
    params = [np.zeros(2), np.zeros(2)]
    bad = [np.zeros(2), np.array([1.0, np.nan])]
    with pytest.raises(NumericFaultError, match="tensor 1"):
        solver.step(params, bad)


def _state_bytes(solver):
    """Every attribute of a solver but its scratch arrays, with the
    arrays in its lists as bytes."""
    return {name: [a.tobytes() if isinstance(a, np.ndarray) else a
                   for a in value] if isinstance(value, list) else value
            for name, value in vars(solver).items() if name != "scratch"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver_id", sorted(SOLVER_NAMES))
def test_non_finite_gradient_raises_before_any_change(solver_id, bad):
    solver, _ = _mid_solver(solver_id, [(2, 5)])
    w = np.ones((2, 5))
    rng = np.random.default_rng(solver_id)
    solver.step([w], [rng.normal(size=(2, 5))])
    before, w_before = _state_bytes(solver), w.copy()
    g = rng.normal(size=(2, 5))
    g[1, 3] = bad
    with pytest.raises(NumericFaultError, match="tensor 0"):
        solver.step([w], [g])
    assert _state_bytes(solver) == before
    assert w.tobytes() == w_before.tobytes()


@pytest.mark.parametrize("solver_id", sorted(SOLVER_NAMES))
def test_finite_gradient_whose_sum_overflows_is_stepped(solver_id):
    solver, _ = _mid_solver(solver_id, [(4,)])
    w = np.zeros(4)
    g = np.array([1.5e308, 1.5e308, -1.0, 1e308])
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.sum(g))
        solver.step([w], [g])
    assert solver.t == 1


def test_beta_one_edge_stays_finite():
    # the genome's closed interval admits beta = 1.0 exactly
    for solver_id in (1, 3, 4, 6, 7):
        params = selective_exclusion(solver_id, mid_range_hyper())
        params["beta1"] = 1.0
        params["beta2"] = 1.0
        solver = make_solver(SolverSpec(solver_id, params), [(2,)])
        w = np.array([1.0, -1.0])
        for _ in range(5):
            solver.step([w], [2.0 * w])
        assert np.all(np.isfinite(w))


# Hyperparameters of the reference comparisons: every consumed gene away
# from its neutral value, so each term of each rule shows in the result.
REFERENCE_CASES = {
    1: {"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
        "weight_decay": 0.02},
    2: {"learning_rate": 0.7, "rho": 0.85, "weight_decay": 0.03},
    3: {"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
        "weight_decay": 0.04},
    4: {"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
        "weight_decay": 0.02},
    5: {"learning_rate": 0.1, "lambda": 0.3, "weight_decay": 0.01},
    6: {"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
        "lambda": 0.004, "weight_decay": 0.02},
    7: {"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
        "weight_decay": 0.02},
    8: {"learning_rate": 0.01, "rho": 0.9, "momentum": 0.6,
        "weight_decay": 0.02},
    9: {"learning_rate": 0.02},
    10: {"learning_rate": 0.05, "momentum": 0.7, "weight_decay": 0.01},
}


def test_updates_match_torch_reference():
    torch = pytest.importorskip("torch")
    torch.set_default_dtype(torch.float64)

    cases = {
        1: (REFERENCE_CASES[1],
            lambda p: torch.optim.Adam(p, lr=0.05, betas=(0.9, 0.95),
                                       eps=1e-8, weight_decay=0.02)),
        2: (REFERENCE_CASES[2],
            lambda p: torch.optim.Adadelta(p, lr=0.7, rho=0.85, eps=1e-6,
                                           weight_decay=0.03)),
        3: (REFERENCE_CASES[3],
            lambda p: torch.optim.AdamW(p, lr=0.05, betas=(0.9, 0.95),
                                        eps=1e-8, weight_decay=0.04)),
        5: (REFERENCE_CASES[5],
            lambda p: torch.optim.ASGD(p, lr=0.1, lambd=0.3, alpha=0.75,
                                       t0=0, weight_decay=0.01)),
        6: (REFERENCE_CASES[6],
            lambda p: torch.optim.NAdam(p, lr=0.05, betas=(0.9, 0.95),
                                        eps=1e-8, momentum_decay=0.004,
                                        weight_decay=0.02)),
        7: (REFERENCE_CASES[7],
            lambda p: torch.optim.RAdam(p, lr=0.05, betas=(0.9, 0.95),
                                        eps=1e-8, weight_decay=0.02)),
        8: (REFERENCE_CASES[8],
            lambda p: torch.optim.RMSprop(p, lr=0.01, alpha=0.9,
                                          eps=1e-8, momentum=0.6,
                                          weight_decay=0.02)),
        9: (REFERENCE_CASES[9],
            lambda p: torch.optim.Rprop(p, lr=0.02, etas=(0.5, 1.2),
                                        step_sizes=(1e-6, 50.0))),
        10: (REFERENCE_CASES[10],
             lambda p: torch.optim.SGD(p, lr=0.05, momentum=0.7,
                                       weight_decay=0.01)),
    }
    # Adamax is excluded: the epsilon sits inside the running max there,
    # here in the denominator; both are published formulations
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(25)]
    for solver_id, (params, factory) in cases.items():
        mine = w0.copy()
        solver = make_solver(SolverSpec(solver_id, params), [(4, 3)])
        for g in grads:
            solver.step([mine], [g.copy()])
        t = torch.tensor(w0.copy(), requires_grad=True)
        opt = factory([t])
        for g in grads:
            opt.zero_grad()
            t.grad = torch.tensor(g.copy())
            opt.step()
        diff = np.max(np.abs(mine - t.detach().numpy()))
        assert diff < 1e-8, (SOLVER_NAMES[solver_id], diff)


def _rule_cases():
    """Every solver id with its decay and momentum genes both zero and
    both non-zero (only the ones the rule consumes)."""
    for solver_id in SOLVER_NAMES:
        for wd, mom in ((0.0, 0.0), (0.03, 0.6)):
            params = selective_exclusion(solver_id, mid_range_hyper())
            params["learning_rate"] = 0.05
            for key, value in (("weight_decay", wd), ("momentum", mom)):
                if key in params:
                    params[key] = value
            yield solver_id, params


def test_multi_tensor_and_flat_steps_agree_bitwise():
    rng = np.random.default_rng(2)
    shapes = [(3, 4), (4,), (4, 2), (2,)]
    sizes = [int(np.prod(s)) for s in shapes]
    for solver_id, params in _rule_cases():
        split = make_solver(SolverSpec(solver_id, dict(params)), shapes)
        flat = make_solver(SolverSpec(solver_id, dict(params)),
                           [(sum(sizes),)])
        tensors = [rng.normal(size=s) for s in shapes]
        vector = np.concatenate([t.ravel() for t in tensors])
        for _ in range(20):
            grads = [rng.normal(size=s) for s in shapes]
            split.step(tensors, grads)
            flat.step([vector],
                      [np.concatenate([g.ravel() for g in grads])])
        assert np.array_equal(
            np.concatenate([t.ravel() for t in tensors]), vector), \
            (SOLVER_NAMES[solver_id], params)


def test_step_leaves_gradients_unchanged():
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (4,)]
    for solver_id, params in _rule_cases():
        solver = make_solver(SolverSpec(solver_id, params), shapes)
        tensors = [rng.normal(size=s) for s in shapes]
        grads = [rng.normal(size=s) for s in shapes]
        before = [g.copy() for g in grads]
        for _ in range(3):
            solver.step(tensors, grads)
        for g, b in zip(grads, before):
            assert np.array_equal(g, b), SOLVER_NAMES[solver_id]



@pytest.mark.parametrize("solver_id", sorted(SOLVER_NAMES))
def test_float32_solver_keeps_every_array_float32(solver_id):
    # training's precision: parameters, slots, scratch and Rprop's step
    # sizes stay float32, and the steps track the float64 rule's
    rng = np.random.default_rng(solver_id)
    shapes = [(2, 5), (3,)]
    params = selective_exclusion(solver_id, mid_range_hyper())
    single = make_solver(SolverSpec(solver_id, params), shapes,
                         dtype=np.float32)
    double = make_solver(SolverSpec(solver_id, params), shapes)
    tensors = [rng.normal(size=s).astype(np.float32) for s in shapes]
    reference = [t.astype(float) for t in tensors]
    for _ in range(3):
        grads = [rng.normal(size=s).astype(np.float32) for s in shapes]
        single.step(tensors, grads)
        double.step(reference, [g.astype(float) for g in grads])
    state = [a for value in vars(single).values() if isinstance(value, list)
             for item in value
             for a in (item if isinstance(item, tuple) else (item,))]
    assert len(state) >= len(shapes)  # at least the scratch arrays
    assert all(a.dtype == np.float32 for a in tensors + state)
    for t, r in zip(tensors, reference):
        assert np.allclose(t, r, rtol=1e-5, atol=1e-6), SOLVER_NAMES[solver_id]


# Scalar reference: one weight at a time in plain Python floats, written
# from each rule's published update equations, independent of the
# vectorized in-place code. Each takes (w, g, t, state, hyperparameters)
# with t counted from 1 and returns the new weight; L2 weight decay is
# added to the gradient except in AdamW.
EPS = 1e-8


def _l2(w, g, p):
    return g + p.get("weight_decay", 0.0) * w


def _adam(w, g, t, s, p):
    # Kingma & Ba, "Adam" (2015), Algorithm 1
    b1, b2 = p["beta1"], p["beta2"]
    g = _l2(w, g, p)
    s["m"] = b1 * s.get("m", 0.0) + (1 - b1) * g
    s["v"] = b2 * s.get("v", 0.0) + (1 - b2) * g * g
    m_hat = s["m"] / (1 - b1 ** t)
    v_hat = s["v"] / (1 - b2 ** t)
    return w - p["learning_rate"] * m_hat / (math.sqrt(v_hat) + EPS)


def _adadelta(w, g, t, s, p):
    # Zeiler, "ADADELTA" (2012), Algorithm 1, scaled by the learning rate
    rho, eps = p["rho"], 1e-6
    g = _l2(w, g, p)
    s["eg2"] = rho * s.get("eg2", 0.0) + (1 - rho) * g * g
    dx = math.sqrt(s.get("edx2", 0.0) + eps) / math.sqrt(s["eg2"] + eps) * g
    s["edx2"] = rho * s.get("edx2", 0.0) + (1 - rho) * dx * dx
    return w - p["learning_rate"] * dx


def _adamw(w, g, t, s, p):
    # Loshchilov & Hutter, "Decoupled Weight Decay Regularization"
    # (2019): the decay shrinks the weight and bypasses the moments
    w = w * (1 - p["learning_rate"] * p["weight_decay"])
    return _adam(w, g, t, s, dict(p, weight_decay=0.0))


def _adamax(w, g, t, s, p):
    # Kingma & Ba (2015), Algorithm 2, with EPS guarding u = 0
    b1, b2 = p["beta1"], p["beta2"]
    g = _l2(w, g, p)
    s["m"] = b1 * s.get("m", 0.0) + (1 - b1) * g
    s["u"] = max(b2 * s.get("u", 0.0), abs(g))
    return w - p["learning_rate"] / (1 - b1 ** t) * s["m"] / (s["u"] + EPS)


def _asgd(w, g, t, s, p):
    # Bottou, "Stochastic Gradient Descent Tricks" (2012): step size
    # eta_t = lr / (1 + lambda lr t)^0.75 from t = 0, weights shrunk by
    # 1 - lambda eta_t
    lr, lam = p["learning_rate"], p["lambda"]
    g = _l2(w, g, p)
    eta = lr / (1 + lam * lr * (t - 1)) ** 0.75
    return w * (1 - lam * eta) - eta * g


def _nadam(w, g, t, s, p):
    # Dozat, "Incorporating Nesterov Momentum into Adam" (2016), with the
    # momentum schedule mu_t = beta1 (1 - 0.96^(t psi) / 2)
    b1, b2, psi = p["beta1"], p["beta2"], p["lambda"]
    g = _l2(w, g, p)
    mu_t = b1 * (1 - 0.5 * 0.96 ** (t * psi))
    mu_next = b1 * (1 - 0.5 * 0.96 ** ((t + 1) * psi))
    s["mu_prod"] = s.get("mu_prod", 1.0) * mu_t
    s["m"] = b1 * s.get("m", 0.0) + (1 - b1) * g
    s["v"] = b2 * s.get("v", 0.0) + (1 - b2) * g * g
    m_hat = (mu_next * s["m"] / (1 - s["mu_prod"] * mu_next)
             + (1 - mu_t) * g / (1 - s["mu_prod"]))
    v_hat = s["v"] / (1 - b2 ** t)
    return w - p["learning_rate"] * m_hat / (math.sqrt(v_hat) + EPS)


def _radam(w, g, t, s, p):
    # Liu et al., "On the Variance of the Adaptive Learning Rate and
    # Beyond" (2020), Algorithm 2, with Adam's EPS in the adaptive term
    b1, b2 = p["beta1"], p["beta2"]
    g = _l2(w, g, p)
    s["m"] = b1 * s.get("m", 0.0) + (1 - b1) * g
    s["v"] = b2 * s.get("v", 0.0) + (1 - b2) * g * g
    m_hat = s["m"] / (1 - b1 ** t)
    rho_inf = 2 / (1 - b2) - 1
    rho_t = rho_inf - 2 * t * b2 ** t / (1 - b2 ** t)
    if rho_t <= 5:
        return w - p["learning_rate"] * m_hat
    r = math.sqrt((rho_t - 4) * (rho_t - 2) * rho_inf
                  / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
    v_hat = s["v"] / (1 - b2 ** t)
    return w - p["learning_rate"] * r * m_hat / (math.sqrt(v_hat) + EPS)


def _rmsprop(w, g, t, s, p):
    # Tieleman & Hinton, Coursera lecture 6.5 (2012), with heavy-ball
    # momentum on the normalized gradient
    rho, mom = p["rho"], p["momentum"]
    g = _l2(w, g, p)
    s["ms"] = rho * s.get("ms", 0.0) + (1 - rho) * g * g
    s["buf"] = mom * s.get("buf", 0.0) + g / (math.sqrt(s["ms"]) + EPS)
    return w - p["learning_rate"] * s["buf"]


def _rprop(w, g, t, s, p):
    # Riedmiller & Braun (1993), iRprop-: a sign change shrinks the step
    # and forgets the gradient, so the weight holds still
    step = s.get("step", p["learning_rate"])
    if s.get("prev", 0.0) * g > 0:
        step = min(step * 1.2, 50.0)
    elif s.get("prev", 0.0) * g < 0:
        step = max(step * 0.5, 1e-6)
        g = 0.0
    s["step"], s["prev"] = step, g
    return w - ((g > 0) - (g < 0)) * step


def _sgd(w, g, t, s, p):
    # heavy-ball momentum (Polyak 1964), as in Sutskever et al. (2013)
    g = _l2(w, g, p)
    s["buf"] = p["momentum"] * s.get("buf", 0.0) + g
    return w - p["learning_rate"] * s["buf"]


SCALAR_RULES = {1: _adam, 2: _adadelta, 3: _adamw, 4: _adamax, 5: _asgd,
                6: _nadam, 7: _radam, 8: _rmsprop, 9: _rprop, 10: _sgd}


@pytest.mark.parametrize("solver_id", sorted(SOLVER_NAMES))
def test_updates_match_scalar_oracle(solver_id):
    params = REFERENCE_CASES[solver_id]
    rng = np.random.default_rng(4)
    w = rng.normal(size=6)
    grads = rng.normal(size=(20, 6))
    solver = make_solver(SolverSpec(solver_id, dict(params)), [w.shape])
    scalar = [float(x) for x in w]
    states = [{} for _ in scalar]
    for t, g in enumerate(grads, start=1):
        solver.step([w], [g])
        scalar = [SCALAR_RULES[solver_id](x, float(gi), t, st, params)
                  for x, gi, st in zip(scalar, g, states)]
        # float64 round-off of two operation orders over 20 steps
        np.testing.assert_allclose(w, scalar, rtol=1e-12, atol=1e-14,
                                   err_msg=f"{SOLVER_NAMES[solver_id]} "
                                           f"step {t}")


class _MaskedRprop:
    """Rprop as it was written with where=-masked ufuncs: the reference
    the table-driven rule must match bit for bit."""

    def __init__(self, shape, lr):
        self.step_size = np.full(shape, lr)
        self.prev = np.zeros(shape)

    def step(self, w, g):
        step, prev = self.step_size, self.prev
        s1 = prev * g
        grew, shrank = s1 > 0, s1 < 0
        np.multiply(step, 1.2, out=step, where=grew)
        np.minimum(step, 50.0, out=step, where=grew)
        np.multiply(step, 0.5, out=step, where=shrank)
        np.maximum(step, 1e-6, out=step, where=shrank)
        np.copyto(prev, g)
        np.copyto(prev, 0.0, where=shrank)
        w -= np.sign(prev) * step


@pytest.mark.parametrize("chunk", [None, 96])
@pytest.mark.parametrize("lr", [0.0, 1e-9, 0.01])
def test_rprop_matches_masked_reference(lr, chunk, monkeypatch):
    if chunk:  # several chunks, the last one short
        monkeypatch.setattr(Rprop, "CHUNK", chunk)
    rng = np.random.default_rng(int(lr * 1e9) + 3)
    shape = (2, 400)
    solver = make_solver(SolverSpec(9, {"learning_rate": lr}), [shape])
    reference = _MaskedRprop(shape, lr)
    w = rng.normal(size=shape)
    w[:, ::13] = -0.0
    w_ref = w.copy()
    # columns 0-99 keep one sign after a single flip (steps grow to
    # STEP_MAX), 100-199 flip every step (steps shrink to STEP_MIN), the
    # rest draw random signs with zeros, -0.0 and products that underflow
    steady = np.where(rng.random(100) < 0.5, -1.0, 1.0)
    for t in range(160):
        sign = rng.choice([-1.0, 1.0], size=shape)
        sign[:, :100] = -steady if t == 1 else steady
        sign[:, 100:200] = 1.0 if t % 2 else -1.0
        zero = rng.random(shape) < 0.2
        sign[:, 200:][zero[:, 200:]] = 0.0
        sign[:, 200:300][zero[:, 200:300]] = -0.0
        scale = rng.uniform(0.1, 2.0, size=shape)
        scale[:, 350:] = 1e-170
        g = sign * scale
        solver.step([w], [g])
        reference.step(w_ref, g)
        assert w.tobytes() == w_ref.tobytes()
        assert solver.step_size[0].tobytes() == reference.step_size.tobytes()
        assert solver.prev_grad[0].tobytes() == reference.prev.tobytes()
    assert np.all(solver.step_size[0][:, :100] == 50.0)
    assert np.all(solver.step_size[0][:, 100:200] == 1e-6)
