"""The benchmark's tracer must still see every gradient call of training.

bench/tracer.py counts gradient calls and parameter steps by wrapping
network.loss_and_gradients wherever an evomlp module holds it, and reads
the stack from its first argument. A training path that stopped calling
it through the network module, or called it with something else first,
would lose those counts without an error, so this test traces one small
evaluation in a fresh interpreter and checks both counts against the
mini-batches the folds must run.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from evomlp import objective
from evomlp.data import synthesize

ROOT = Path(__file__).resolve().parents[1]

TRACED_EVALUATE = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:3]
import tracer
from evomlp import objective
from evomlp.data import synthesize
from evomlp.genome import Genome, HyperparamVector, SearchSpace, decode

with tempfile.TemporaryDirectory() as out:
    traced = tracer.install(out)
    genome = Genome(hyper=HyperparamVector(
        learning_rate=0.01, weight_decay=0.0, rho=0.9, beta1=0.9,
        beta2=0.999, lam=0.5, momentum=0.9, solver_gene=1.0),
        neurons=(6.0, 5.0))
    cfg = objective.EvalConfig(folds=3, epochs=2, batch_size=16, seed=1)
    objective.evaluate(genome, synthesize(61, 4, 3, separation=3.0, seed=0),
                       cfg)
    print(json.dumps({
        "hidden": decode(genome, SearchSpace()).hidden_layer_sizes,
        "grad_calls": len(traced.leaf["grad"]),
        "param_steps": traced.param_steps}))
"""


def test_tracer_counts_every_training_batch():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_EVALUATE, str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120, check=True)
    traced = json.loads(done.stdout.splitlines()[-1])

    cfg = objective.EvalConfig(folds=3, epochs=2, batch_size=16, seed=1)
    split = objective.split_folds(
        synthesize(61, 4, 3, separation=3.0, seed=0), cfg)
    sizes = (split.p, *traced["hidden"], 3)
    n_params = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    batches = cfg.epochs * -(-split.n_train // cfg.batch_size)
    stacks = objective._stacks(split, n_params)
    assert len(stacks) == 2  # training sets of two sizes
    assert traced["grad_calls"] == sum(batches[s[0]] for s in stacks)
    assert traced["param_steps"] == int(np.sum(batches)) * n_params
