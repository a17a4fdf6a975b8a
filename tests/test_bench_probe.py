"""The benchmark's probe must keep running against the current API.

bench/probe.py times single evomlp functions on fixed inputs: it builds a
Genome by its fields, decodes and evaluates it, and drives every
optimizer through pbmh.minimize. A change to any of those calls would
otherwise surface only in a traced benchmark run, so this test runs the
two probes that touch them.
"""

import importlib
import math
from pathlib import Path

from evomlp import pbmh

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_probe_decodes_evaluates_and_drives_every_optimizer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    probe = importlib.import_module("probe")
    metrics = {}
    probe.decode_and_evaluate(metrics)
    probe.optimizer_overhead(metrics)
    expected = {"genome.decode_us", "objective.evaluate_s.fixed"} | {
        f"pbmh.{alg}.us_per_eval" for alg in pbmh.ALGORITHM_NAMES}
    assert set(metrics) == expected
    assert all(math.isfinite(value) and value > 0
               for value, _ in metrics.values())
