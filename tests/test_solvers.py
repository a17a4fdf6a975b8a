import numpy as np
import pytest

from evomlp.genome import mid_range_hyper, selective_exclusion
from evomlp.solvers import (NumericFaultError, SOLVER_NAMES, SolverSpec,
                            consumed_parameters, make_solver)


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


def test_updates_match_torch_reference():
    torch = pytest.importorskip("torch")
    torch.set_default_dtype(torch.float64)

    cases = {
        1: ({"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
             "weight_decay": 0.02},
            lambda p: torch.optim.Adam(p, lr=0.05, betas=(0.9, 0.95),
                                       eps=1e-8, weight_decay=0.02)),
        2: ({"learning_rate": 0.7, "rho": 0.85, "weight_decay": 0.03},
            lambda p: torch.optim.Adadelta(p, lr=0.7, rho=0.85, eps=1e-6,
                                           weight_decay=0.03)),
        3: ({"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
             "weight_decay": 0.04},
            lambda p: torch.optim.AdamW(p, lr=0.05, betas=(0.9, 0.95),
                                        eps=1e-8, weight_decay=0.04)),
        5: ({"learning_rate": 0.1, "lambda": 0.3, "weight_decay": 0.01},
            lambda p: torch.optim.ASGD(p, lr=0.1, lambd=0.3, alpha=0.75,
                                       t0=0, weight_decay=0.01)),
        6: ({"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
             "lambda": 0.004, "weight_decay": 0.02},
            lambda p: torch.optim.NAdam(p, lr=0.05, betas=(0.9, 0.95),
                                        eps=1e-8, momentum_decay=0.004,
                                        weight_decay=0.02)),
        7: ({"learning_rate": 0.05, "beta1": 0.9, "beta2": 0.95,
             "weight_decay": 0.02},
            lambda p: torch.optim.RAdam(p, lr=0.05, betas=(0.9, 0.95),
                                        eps=1e-8, weight_decay=0.02)),
        8: ({"learning_rate": 0.01, "rho": 0.9, "momentum": 0.6,
             "weight_decay": 0.02},
            lambda p: torch.optim.RMSprop(p, lr=0.01, alpha=0.9,
                                          eps=1e-8, momentum=0.6,
                                          weight_decay=0.02)),
        9: ({"learning_rate": 0.02},
            lambda p: torch.optim.Rprop(p, lr=0.02, etas=(0.5, 1.2),
                                        step_sizes=(1e-6, 50.0))),
        10: ({"learning_rate": 0.05, "momentum": 0.7,
              "weight_decay": 0.01},
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
