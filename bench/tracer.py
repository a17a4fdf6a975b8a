"""Spans around calls into evomlp's public functions, kept in memory.

The tracer replaces each traced function, wherever an evomlp module
holds a reference to it, by a timing wrapper. Layers above the training
loop (run_benchmark, layer_growth_search, optimize_stage, evaluate,
inject_missing) become spans with a parent; the per-mini-batch calls
(loss_and_gradients, solver steps, predict) are too many for spans, so
their durations go to flat arrays and each evaluate span carries the sum
its children took. Self time of a span is its duration minus that sum.

Pool workers forked from the traced process inherit the wrappers; each
process writes what it holds when a grid cell ends, into files named by
its pid, and the parent of the run merges them.
"""

import array
import json
import os
import sys
import time

LEAVES = ("grad", "step", "predict")


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.stack = []
        self.child = None
        self._last_net = None
        self._last_params = 0
        self._counter = 0
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        """Start empty; a forked worker keeps the open stack so its cells
        still name the parent's run_benchmark span."""
        self.pid = os.getpid()
        self.spans = []
        self.leaf = {name: array.array("d") for name in LEAVES}
        self.param_steps = 0

    def _new_id(self):
        self._counter += 1
        return f"{self.pid}:{self._counter}"

    def span(self, name, fn, flush=False, children=False):
        """Wrap fn so each call records one span named `name`."""
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            saved = self.child
            if children:
                self.child = [0.0, 0.0, 0.0]
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.stack.pop()
                record = {"name": name, "id": sid, "parent": parent,
                          "t0": t0, "t1": t1}
                if children:
                    record.update(zip(LEAVES, self.child))
                    self.child = saved
                self.spans.append(record)
                if flush:
                    self.flush()
        return wrapped

    def leaf_timer(self, name, fn, count_params=False):
        """Wrap a per-mini-batch call: duration into an array, plus the
        enclosing evaluate span's child sum."""
        perf = time.perf_counter
        index = LEAVES.index(name)

        def wrapped(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            dt = perf() - t0
            self.leaf[name].append(dt)
            if self.child is not None:
                self.child[index] += dt
            if count_params:
                net = args[0]
                if net is not self._last_net:
                    self._last_net = net
                    self._last_params = sum(
                        w.size + b.size
                        for w, b in zip(net.weights, net.biases))
                self.param_steps += self._last_params
            return out
        return wrapped

    def timed_solvers(self, make_solver):
        def wrapped(*args, **kwargs):
            solver = make_solver(*args, **kwargs)
            solver.step = self.leaf_timer("step", solver.step)
            return solver
        return wrapped

    def flush(self):
        """Append everything this process holds to its files, then drop
        it from memory. The counters line records how long the flush
        took, for the overhead estimate."""
        t0 = time.perf_counter()
        for name, values in self.leaf.items():
            with open(os.path.join(self.out_dir,
                                   f"{name}-{self.pid}.f64"), "ab") as fh:
                values.tofile(fh)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"name": "@counters",
                                 "param_steps": self.param_steps,
                                 "flush_s": time.perf_counter() - t0})
                     + "\n")
        self._reset()


def _replace(original, replacement):
    """Point every evomlp module attribute bound to `original` at
    `replacement`; a layer the tracer cannot reach is an error."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("evomlp"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no evomlp module references {original!r}")


def install(out_dir):
    """Wrap the traced layers of an imported evomlp; returns the tracer.

    Pool workers must inherit the wrappers, so the grid's pool has to
    fork."""
    import multiprocessing

    from evomlp import data, driver, network, objective, pbmh, solvers

    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("tracing pool workers needs the fork start "
                           "method")
    tracer = Tracer(out_dir)
    _replace(network.loss_and_gradients,
             tracer.leaf_timer("grad", network.loss_and_gradients,
                               count_params=True))
    _replace(network.predict, tracer.leaf_timer("predict", network.predict))
    _replace(solvers.make_solver, tracer.timed_solvers(solvers.make_solver))
    _replace(objective.evaluate,
             tracer.span("objective.evaluate", objective.evaluate,
                         children=True))
    _replace(pbmh.optimize_stage,
             tracer.span("pbmh.optimize_stage", pbmh.optimize_stage))
    _replace(driver.layer_growth_search,
             tracer.span("driver.layer_growth_search",
                         driver.layer_growth_search, flush=True))
    _replace(data.inject_missing,
             tracer.span("data.inject_missing", data.inject_missing))
    _replace(driver.run_benchmark,
             tracer.span("driver.run_benchmark", driver.run_benchmark))
    return tracer
