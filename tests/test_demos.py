"""Every demo script runs to completion.

Each demo runs in a fresh interpreter with the sources on its path and a
temporary working directory, since some write outputs next to it.
The benchmark demo must also write the Friedman result that `evomlp
stats` writes for the demo's results.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from evomlp.cli import main

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def _run_demo(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    _run_demo(demo, tmp_path)


def test_benchmark_demo_writes_the_friedman_json_of_stats(tmp_path):
    _run_demo(REPO / "demos" / "06_benchmark_and_stats.py", tmp_path)
    demo_out = tmp_path / "demo_output"
    assert main(["stats", "--results", str(demo_out / "results.jsonl"),
                 "--out", str(tmp_path / "stats")]) == 0
    assert (tmp_path / "stats" / "friedman.json").read_bytes() \
        == (demo_out / "friedman.json").read_bytes()
