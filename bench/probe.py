"""Fixed-shape timings of single layers, independent of any search path.

Usage: probe.py <out_dir>

Each figure is the median over a few repeats of the mean time per call
of one public evomlp function on inputs that never change, so it moves
only when that function's own cost moves. Writes probe.json in out_dir:
the metrics (name -> value and unit) and the tracer's own cost per
wrapped call, from which the run estimates the tracing overhead.
"""

import io
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from evomlp import cli, data, genome, network, objective, pbmh  # noqa: E402
from evomlp import solvers  # noqa: E402

from workloads import (ALL_ALGORITHMS, TRACE_SCHEMA, make_trace,  # noqa: E402
                       trace_csv)

NARROW = (40, 30)
WIDE = (300, 300, 300)
BATCH = 32
P = 12


def per_call(fn, calls, repeats=5):
    means = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - t0) / calls)
    return statistics.median(means)


def _batch(rng):
    X = rng.standard_normal((BATCH, P))
    M = (rng.random((BATCH, P)) < 0.8).astype(float)
    y = rng.integers(0, 3, size=BATCH)
    return X, M, y


def calibration_us():
    """Mean time of one forward and backward pass of a fixed narrow MLP
    (p=12, batch 32, hidden [40, 30]) in plain NumPy, about 0.2 s in all.
    It runs no evomlp code, so it moves with the machine's speed only:
    beside a round's times it tells a drift of the machine from a change
    in the program."""
    rng = np.random.default_rng(0)
    X, _, y = _batch(rng)
    sizes = (P,) + NARROW + (3,)
    weights = [0.1 * rng.standard_normal((a, b))
               for a, b in zip(sizes, sizes[1:])]
    onehot = np.eye(3)[y]

    def forward_backward():
        acts = [X]
        for w in weights[:-1]:
            acts.append(np.tanh(acts[-1] @ w))
        z = acts[-1] @ weights[-1]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        delta = (e / e.sum(axis=1, keepdims=True) - onehot) / BATCH
        grads = []
        for i in range(len(weights) - 1, -1, -1):
            grads.append(acts[i].T @ delta)
            if i:
                delta = (delta @ weights[i].T) * (1.0 - acts[i] ** 2)
        return grads

    return 1e6 * per_call(forward_backward, 700)


def grad_and_step(metrics):
    rng = np.random.default_rng(0)
    X, M, y = _batch(rng)
    for tag, hidden, grad_calls, step_calls in (("narrow", NARROW, 300, 300),
                                                ("wide", WIDE, 30, 15)):
        net = network.init_network(hidden, P, seed=0)
        metrics[f"network.grad_us.{tag}"] = (1e6 * per_call(
            lambda: network.loss_and_gradients(net, X, M, y), grad_calls),
            "us")
        _, grads = network.loss_and_gradients(net, X, M, y)
        grads = [0.01 * g for g in grads]
        for sid, name in solvers.SOLVER_NAMES.items():
            hyper = genome.selective_exclusion(sid, genome.mid_range_hyper())
            hyper["learning_rate"] = 0.001
            solver = solvers.make_solver(solvers.SolverSpec(sid, hyper),
                                         [p.shape for p in net.params])
            params = [p.copy() for p in net.params]
            metrics[f"solvers.{name}.step_us.{tag}"] = (1e6 * per_call(
                lambda: solver.step(params, grads), step_calls, repeats=3),
                "us")


def optimizer_overhead(metrics):
    """Optimizer cost per evaluation on a sphere, whose own cost is under
    a microsecond, in a 3-layer genome's box."""
    lower, upper = genome.SearchSpace().vector_bounds(3)
    budget = 600
    for alg in ALL_ALGORITHMS:
        seconds = per_call(
            lambda: pbmh.minimize(alg, lambda x: float(x @ x), lower, upper,
                                  population_size=10, budget=budget,
                                  seed=0), 1, repeats=3)
        metrics[f"pbmh.{alg}.us_per_eval"] = (1e6 * seconds / budget, "us")


def decode_and_evaluate(metrics):
    space = genome.SearchSpace(neuron_min=8, neuron_max=64, max_layers=2)
    fixed = genome.Genome(
        hyper=genome.HyperparamVector(
            learning_rate=0.01, weight_decay=0.0, rho=0.9, beta1=0.9,
            beta2=0.999, lam=0.0, momentum=0.0, solver_gene=1.0),
        neurons=(40.0, 30.0))
    metrics["genome.decode_us"] = (1e6 * per_call(
        lambda: genome.decode(fixed, space), 2000), "us")
    ds = data.synthesize(600, 12, 3, separation=4.0, seed=0)
    cfg = objective.EvalConfig(folds=3, epochs=60, batch_size=32, seed=0)
    metrics["objective.evaluate_s.fixed"] = (per_call(
        lambda: objective.evaluate(fixed, ds, cfg, space), 1, repeats=3),
        "s")


def ingest(metrics):
    rows, _ = make_trace(0, 450)
    text = trace_csv(rows)
    schema = data.DataSchema.from_dict(TRACE_SCHEMA)
    seconds = per_call(lambda: data.ingest(io.StringIO(text), schema), 5)
    metrics["data.ingest_rows_per_s"] = (len(rows) / seconds, "1/s")


def _fixed_records(path):
    """A results file shaped like trace-13's: 13 algorithms x 4 rates x
    2 repeats, accuracies drawn once from a fixed generator."""
    rng = np.random.default_rng(0)
    with open(path, "w") as fh:
        for rate in (0.0, 0.05, 0.2, 0.4):
            for a, alg in enumerate(ALL_ALGORITHMS):
                for rep in range(2):
                    acc = float(90 - 40 * rate - 0.5 * a
                                + rng.normal(0, 2))
                    traces = [list(100 - acc + rng.random(4) * 10)
                              for _ in range(2)]
                    traces[1][2] = 100 - acc
                    record = {
                        "algorithm": alg, "missing_rate": rate,
                        "repeat": rep, "fitness": 100 - acc,
                        "accuracy": acc, "f_measure": acc - 3,
                        "architecture": {
                            "hidden_layer_sizes": [20, 10], "solver_id": 9,
                            "solver_name": "Rprop", "learning_rate": 0.01,
                            "active_params": {"learning_rate": 0.01}},
                        "genome": {}, "stage_traces": traces,
                        "n_evaluations": 8, "seed": rep, "wall_time": 1.0}
                    fh.write(json.dumps(record, sort_keys=True) + "\n")


def stats_and_report(metrics, out_dir):
    results = os.path.join(out_dir, "fixed_results.jsonl")
    _fixed_records(results)
    for step in ("stats", "report"):
        argv = [step, "--results", results,
                "--out", os.path.join(out_dir, f"fixed_{step}")]
        if cli.main(argv) != 0:
            raise RuntimeError(f"{step} failed on the fixed results file")
        metrics[f"{step}.s"] = (per_call(lambda: cli.main(argv), 1), "s")


def tracer_cost(out_dir):
    """Seconds the tracer adds to one leaf call (the gradient timer, the
    dearest of the three) and to one span, each as the difference
    between a wrapped and a bare call of the same no-op function."""
    import tracer as tracing

    tracer = tracing.Tracer(out_dir)
    net = network.init_network(NARROW, P, seed=0)

    def noop(*args):
        return None

    bare = per_call(lambda: noop(net), 20000)
    leaf = tracer.leaf_timer("grad", noop, count_params=True)
    span = tracer.span("probe.noop", noop, children=True)
    leaf_s = per_call(lambda: leaf(net), 20000) - bare
    span_s = per_call(lambda: span(net), 20000) - bare
    return {"leaf_s": leaf_s, "span_s": span_s}


def main(out_dir):
    metrics = {}
    grad_and_step(metrics)
    optimizer_overhead(metrics)
    decode_and_evaluate(metrics)
    ingest(metrics)
    stats_and_report(metrics, out_dir)
    with open(os.path.join(out_dir, "probe.json"), "w") as fh:
        json.dump({"metrics": {name: {"value": value, "unit": unit}
                               for name, (value, unit) in metrics.items()},
                   "tracer_cost": tracer_cost(out_dir)}, fh, indent=2)


if __name__ == "__main__":
    main(sys.argv[1])
