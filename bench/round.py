"""One round of a workload in a fresh interpreter.

Usage: round.py <workload> <run_dir> <round_dir> <setup|grid> <trace 0|1>

Set-up covers importing evomlp, parsing the config and loading the
dataset (for a trace workload, `evomlp prepare` on the raw trace first).
In `setup` mode the process stops there. In `grid` mode it then runs the
benchmark grid, followed by the workload's pipeline steps (stats,
report) through the command-line entry point, and writes round.json with
monotonic-clock timestamps that the parent lines up with its own launch
time. An untraced grid round then times a fixed-shape calibration loop
(outside every timing) so that the parent can tell the machine's drift
from a change in the program. Outputs of the program stay in round_dir
for checking.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from evomlp import cli, driver  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(workload, run_dir, round_dir, mode, trace):
    spec = WORKLOADS[workload]
    out = {}
    cfg, dataset_spec = cli.load_config(os.path.join(run_dir, "config.json"))
    if spec["data"]["type"] == "trace":
        code = cli.main(["prepare",
                         "--input", os.path.join(run_dir, "trace.csv"),
                         "--schema", os.path.join(run_dir, "schema.json"),
                         "--output", os.path.join(round_dir, "prep")])
        if code != 0:
            raise RuntimeError(f"prepare exited {code}")
    ds = cli.load_dataset(dataset_spec, base_dir=round_dir)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install(round_dir)
    out["t_grid_start"] = time.monotonic()
    if mode == "grid":
        results = os.path.join(round_dir, "results.jsonl")
        records = driver.run_benchmark(ds, cfg, out_path=results,
                                       jobs=spec["jobs"])
        out["t_grid_end"] = time.monotonic()
        out["cells"] = len(records)
        out["cell_errors"] = sum(1 for r in records if r.error)
        out["evaluations"] = sum(r.n_evaluations for r in records)
        out["step_codes"] = {}
        for step in spec["steps"]:
            out["step_codes"][step] = cli.main([
                step, "--results", results,
                "--out", os.path.join(round_dir, step)])
        out["t_end"] = time.monotonic()
        if tracer:
            tracer.flush()
        else:
            import probe
            out["calib_us"] = probe.calibration_us()
        out["jobs"] = spec["jobs"]
        out["maxrss_self_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        out["maxrss_children_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.path.join(round_dir, "round.json"), "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4],
         sys.argv[5] == "1")
