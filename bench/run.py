"""Benchmark of the evomlp search grid: one command, two workloads.

Usage (from the repository root):

    python3 bench/run.py --workload trace-13 --seed 1 --seconds 55 --trace 0

The run writes its seeded inputs, then launches fresh interpreters that
each do one round of the workload (set-up, grid, pipeline steps) with
BLAS pinned to one thread, and checks every round's outputs. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
fixed-shape probe, then pairs of untraced and traced rounds, and reports
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

import argparse
import array
import filecmp
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import (WORKLOADS, operations_per_round,  # noqa: E402
                       write_inputs)

SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    pass


def launch(script, args, log_path):
    """Run one fresh interpreter; returns its monotonic launch time."""
    env = dict(os.environ, **CHILD_ENV)
    with open(log_path, "ab") as log:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, script)]
                                + args, stdout=log, stderr=log, env=env,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildError(f"{script} {args} timed out; see {log_path}")
    if code != 0:
        with open(log_path, errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise ChildError(f"{script} {args} exited {code}:\n{tail}")
    return started


def run_round(workload, run_dir, index, mode, trace):
    round_dir = os.path.join(run_dir, f"round-{index}")
    os.makedirs(round_dir)
    started = launch("round.py", [workload, run_dir, round_dir, mode,
                                  "1" if trace else "0"],
                     os.path.join(round_dir, "log.txt"))
    with open(os.path.join(round_dir, "round.json")) as fh:
        out = json.load(fh)
    out["dir"] = round_dir
    out["trace"] = trace
    out["setup_s"] = out["t_grid_start"] - started
    if mode == "grid":
        out["grid_s"] = out["t_grid_end"] - out["t_grid_start"]
        out["wall_s"] = out["t_end"] - out["t_grid_start"]
        workers = out["jobs"] if out["jobs"] > 1 else 0
        out["peak_rss_mb"] = (out["maxrss_self_kb"]
                              + workers * out["maxrss_children_kb"]) / 1024
    return out


def failed_operations(rnd):
    """Error records plus pipeline steps that exited non-zero (a failed
    prepare leaves no dataset, so its round crashes instead)."""
    return rnd["cell_errors"] + sum(
        1 for code in rnd["step_codes"].values() if code != 0)


def _differing_files(dir_a, dir_b):
    """Names of files that differ (or are missing) between two output
    directories of the same step."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    return [n for n in names
            if not (os.path.isfile(os.path.join(dir_a, n))
                    and os.path.isfile(os.path.join(dir_b, n))
                    and filecmp.cmp(os.path.join(dir_a, n),
                                    os.path.join(dir_b, n), shallow=False))]


def verify(workload, run_dir, rounds, truth):
    """Every check on every grid round. The oracles run on the first
    round; the others ran on the same inputs, so their deterministic
    record fields and pipeline outputs must equal the first round's.
    Returns (problems, digests, accuracy summary)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from evomlp import cli, solvers

    spec = WORKLOADS[workload]
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path) as fh:
        config = json.load(fh)
    consumed = {sid: set(solvers.consumed_parameters(sid))
                for sid in solvers.SOLVER_NAMES}
    first = rounds[0]["dir"]
    records = checks.load_results(os.path.join(first, "results.jsonl"))
    problems = []
    if truth is not None:
        problems += checks.check_prepare(os.path.join(first, "prep"), truth)
    _, dataset_spec = cli.load_config(config_path)
    ds = cli.load_dataset(dataset_spec, base_dir=first)
    floor = checks.ncm_accuracy(ds.X, ds.y, config["eval"]["folds"]) \
        - spec["floor_margin"]
    problems += checks.check_accuracy(records, floor)
    summary = {"accuracy_floor": round(floor, 2),
               "best_rate0": max((r["accuracy"] for r in records
                                  if not r.get("error")
                                  and r["missing_rate"] == 0),
                                 default=None),
               "mean_by_rate": {str(k): round(v, 2) for k, v in
                                checks.mean_accuracy_by_rate(records).items()}}
    if "stats" in spec["steps"]:
        problems += checks.check_stats(records, os.path.join(first, "stats"))
    problems = [f"{os.path.basename(first)}: {p}" for p in problems]
    digests = []
    for rnd in rounds:
        where = os.path.basename(rnd["dir"])
        records = checks.load_results(os.path.join(rnd["dir"],
                                                   "results.jsonl"))
        problems += [f"{where}: {p}"
                     for p in checks.check_records(records, config, consumed)]
        digests.append(checks.record_digest(records))
        for step in spec["steps"] + (["prep"] if truth is not None else []):
            differ = _differing_files(os.path.join(first, step),
                                 os.path.join(rnd["dir"], step))
            if differ:
                problems.append(f"{where}: {step} outputs {differ} differ "
                                f"from the first round's")
    if len(set(digests)) > 1:
        problems.append(f"rounds on the same inputs differ: {digests}")
    return problems, digests, summary


def _percentile_tail(values):
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, len(ordered) // 2)]


def layer_metrics(traced, probe):
    """Per-layer figures from the traced rounds' span files.

    The tracing overhead of a round is estimated from what it traced: its
    leaf calls and spans times the probe's measured cost of one wrapped
    call, plus the time its flushes took, as a share of the pool's busy
    time less that overhead (the time an untraced round would take)."""
    cost = probe["tracer_cost"]
    spans, leaf, per_round = [], {"grad": [], "step": [], "predict": []}, []
    for rnd in traced:
        counters = flush_s = 0
        round_spans = []
        for path in glob.glob(os.path.join(rnd["dir"], "spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    record = json.loads(line)
                    if record["name"] == "@counters":
                        counters += record["param_steps"]
                        flush_s += record["flush_s"]
                    else:
                        round_spans.append(record)
        calls = {}
        for name in leaf:
            values = array.array("d")
            for path in glob.glob(os.path.join(rnd["dir"], f"{name}-*.f64")):
                with open(path, "rb") as fh:
                    values.frombytes(fh.read())
            leaf[name].extend(values)
            calls[name] = len(values)
        spans += round_spans
        cells = [s for s in round_spans
                 if s["name"] == "driver.layer_growth_search"]
        overhead_s = (sum(calls.values()) * cost["leaf_s"]
                      + len(round_spans) * cost["span_s"] + flush_s)
        per_round.append({
            "param_steps": counters, "calls": calls,
            "overhead": overhead_s
            / (rnd["jobs"] * rnd["grid_s"] - overhead_s),
            "pool_busy": sum(s["t1"] - s["t0"] for s in cells)
            / (rnd["jobs"] * rnd["grid_s"]),
            "inject_s": sum(s["t1"] - s["t0"] for s in round_spans
                            if s["name"] == "data.inject_missing"),
        })

    def durations(name):
        return [s["t1"] - s["t0"] for s in spans if s["name"] == name]

    evals = [s for s in spans if s["name"] == "objective.evaluate"]
    eval_total = sum(s["t1"] - s["t0"] for s in evals)
    child = {name: sum(s[name] for s in evals) for name in leaf}
    stage_total = sum(durations("pbmh.optimize_stage"))
    median = statistics.median
    metrics = {
        "objective.evaluate_s_p50": (median(durations("objective.evaluate")),
                                     "s"),
        "objective.evaluate_s_tail": (
            _percentile_tail(durations("objective.evaluate")), "s"),
        "objective.self_share": ((eval_total - sum(child.values()))
                                 / eval_total, "fraction"),
        "network.grad_calls": (median(r["calls"]["grad"] for r in per_round),
                               "count"),
        "network.grad_us_p50": (1e6 * median(leaf["grad"]), "us"),
        "network.grad_share": (child["grad"] / eval_total, "fraction"),
        "network.predict_share": (child["predict"] / eval_total,
                                  "fraction"),
        "solvers.step_calls": (median(r["calls"]["step"] for r in per_round),
                               "count"),
        "solvers.step_us_p50": (1e6 * median(leaf["step"]), "us"),
        "solvers.step_share": (child["step"] / eval_total, "fraction"),
        "network.param_steps": (median(r["param_steps"] for r in per_round),
                                "count"),
        "network.params_per_grad": (
            median(r["param_steps"] / r["calls"]["grad"] for r in per_round),
            "count"),
        "pbmh.self_share": ((stage_total - eval_total) / stage_total,
                            "fraction"),
        "driver.cell_s_p50": (median(durations("driver.layer_growth_search")),
                              "s"),
        "driver.pool_busy_share": (median(r["pool_busy"] for r in per_round),
                                   "fraction"),
        "data.inject_missing_s": (median(r["inject_s"] for r in per_round),
                                  "s"),
        "bench.trace_overhead_share": (median(r["overhead"]
                                              for r in per_round),
                                       "fraction"),
    }
    for name, figure in probe["metrics"].items():
        metrics[name] = (figure["value"], figure["unit"])
    cells = durations("driver.layer_growth_search")
    return metrics, {"evaluate_spans": len(evals), "cell_spans": len(cells)}


def run_probe(run_dir):
    probe_dir = os.path.join(run_dir, "probe")
    os.makedirs(probe_dir)
    launch("probe.py", [probe_dir], os.path.join(probe_dir, "log.txt"))
    with open(os.path.join(probe_dir, "probe.json")) as fh:
        return json.load(fh)


def measure(workload, seconds, trace, run_dir):
    """Set-up launches (untraced) or the probe (traced) first, then whole
    rounds (untraced) or pairs of an untraced and a traced round, the
    first of each pair alternating, for as long as the longest so far
    still fits in `seconds`."""
    started = time.monotonic()
    setups, rounds, probe, index = [], [], None, 0
    if trace:
        probe = run_probe(run_dir)
    else:
        for _ in range(SETUP_LAUNCHES):
            setups.append(run_round(workload, run_dir, index, "setup", False))
            index += 1
    longest = 0.0
    while time.monotonic() - started + longest <= seconds:
        t0 = time.monotonic()
        if not trace:
            order = (False,)
        elif len(rounds) // 2 % 2 == 0:
            order = (False, True)
        else:
            order = (True, False)
        for traced in order:
            rounds.append(run_round(workload, run_dir, index, "grid",
                                    traced))
            index += 1
        longest = max(longest, time.monotonic() - t0)
    return setups, rounds, probe


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "evomlp", "__init__.py")):
        print(f"error: no evomlp sources under {ROOT}/src", file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    truth = write_inputs(args.workload, args.seed, run_dir)
    try:
        setups, rounds, probe = measure(args.workload, args.seconds,
                                        bool(args.trace), run_dir)
    except ChildError as exc:
        print(f"error: {exc}\nkept {run_dir}", file=sys.stderr)
        return 1

    problems, digests, summary = verify(args.workload, run_dir, rounds, truth)
    attempted = len(rounds) * operations_per_round(args.workload)
    failed = sum(failed_operations(r) for r in rounds)
    median = statistics.median
    if args.trace:
        traced = [r for r in rounds if r["trace"]]
        untraced = [r for r in rounds if not r["trace"]]
        metrics, counts = layer_metrics(traced, probe)
        want = {"evaluate_spans": sum(r["evaluations"] for r in traced),
                "cell_spans": sum(r["cells"] for r in traced)}
        if counts != want:
            problems.append(f"trace missed spans: {counts} != {want}")
        counts["paired_grid_ratio"] = round(
            median(r["grid_s"] for r in traced)
            / median(r["grid_s"] for r in untraced), 4)
    else:
        metrics = {
            "setup_s": (median(r["setup_s"] for r in setups + rounds), "s"),
            "wall_s": (median(r["wall_s"] for r in rounds), "s"),
            "evals_per_s": (median(r["evaluations"] / r["grid_s"]
                                   for r in rounds), "1/s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
        counts = {"evaluations_per_round": rounds[0]["evaluations"],
                  "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
                  "calib_us": [round(r["calib_us"], 2) for r in rounds],
                  "setup_all_s": [round(r["setup_s"], 4)
                                  for r in setups + rounds]}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "setups": len(setups),
                      "digest": digests[0], **summary, **counts}),
          file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"kept {run_dir}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
