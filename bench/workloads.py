"""Workload definitions and the seeded inputs each one runs on.

Everything here is the benchmark's own work: it writes a config file
(and, for trace-13, a raw battery trace with its schema) that the
program then consumes, and keeps the trace's ground truth for the
checks. Only the standard library is used, so the same seed gives the
same bytes on every machine.
"""

import json
import os
import random

ALL_ALGORITHMS = ("GA", "DE", "MA", "PSO", "CMA-ES", "HPSO", "CPSO", "CLPSO",
                  "SAP-DE", "JADE", "SHADE", "LSHADE", "PPSO")

# Energy-rate class boundaries in percent battery per minute; the trace
# generator labels pairs with these, independently of the program.
SAFE_BELOW = 0.5
CRITICAL_ABOVE = 1.5
THRESHOLD_MARGIN = 0.05

TRACE_SCHEMA = {
    "features": {
        "cpu": "numeric",
        "brightness": "numeric",
        "temperature": "numeric",
        "wifi": {"ordinal": ["off", "on"]},
        "screen": {"ordinal": ["off", "on"]},
        "net": {"onehot": ["none", "wifi", "cell"]},
    },
    "settings": ["wifi", "screen"],
}

# Each workload: the search grid, how its data is made, the worker count,
# and which pipeline steps follow the grid. "floor_margin" is how far (in
# accuracy points) the best rate-0 cell may fall below a nearest-class-mean
# classifier on the same data before the run counts as wrong.
WORKLOADS = {
    "wide-grid": {
        "config": {
            "algorithms": ["JADE"],
            "max_layers": 3, "stage_budget": 6, "population_size": 4,
            "repeats": 4, "missing_rates": [0.0, 0.2],
            "eval": {"folds": 2, "epochs": 2, "batch_size": 32},
            "space": {"neuron_min": 1, "neuron_max": 400, "max_layers": 3},
        },
        "data": {"type": "synthetic", "n": 1500, "p": 16, "classes": 3,
                 "separation": 2.0},
        "jobs": 1,
        "steps": ["report"],
        "floor_margin": 20.0,
    },
    "trace-13": {
        "config": {
            "algorithms": list(ALL_ALGORITHMS),
            "max_layers": 2, "stage_budget": 4, "population_size": 4,
            "repeats": 2, "missing_rates": [0.0, 0.05, 0.2, 0.4],
            "eval": {"folds": 2, "epochs": 3, "batch_size": 32},
            "space": {"neuron_min": 8, "neuron_max": 64, "max_layers": 2},
        },
        "data": {"type": "trace", "rows": 450},
        "jobs": 2,
        "steps": ["stats", "report"],
        "floor_margin": 15.0,
    },
}


def operations_per_round(workload):
    """Grid cells plus pipeline steps (prepare counts for traces)."""
    cfg = WORKLOADS[workload]["config"]
    cells = (len(cfg["algorithms"]) * len(cfg["missing_rates"])
             * cfg["repeats"])
    steps = len(WORKLOADS[workload]["steps"])
    if WORKLOADS[workload]["data"]["type"] == "trace":
        steps += 1
    return cells + steps


def _trace_rate(rng, row):
    """Target energy rate (%/min) of a state, kept clear of the class
    boundaries so float rounding can never move a pair across one."""
    rate = (0.02 * row["cpu"] + 0.004 * row["brightness"]
            + 0.4 * (row["net"] == "cell") + 0.2 * (row["screen"] == "on")
            + 0.1 * (row["wifi"] == "on") - 0.85 + rng.gauss(0.0, 0.15))
    rate = min(max(rate, 0.02), 3.0)
    for edge in (SAFE_BELOW, CRITICAL_ABOVE):
        if abs(rate - edge) < THRESHOLD_MARGIN:
            rate = edge + (THRESHOLD_MARGIN if rate >= edge
                           else -THRESHOLD_MARGIN)
    return rate


def _label(rate):
    if rate < SAFE_BELOW:
        return "safe"
    if rate > CRITICAL_ABOVE:
        return "critical"
    return "warning"


def make_trace(seed, n_rows):
    """A raw discharging/charging trace and its ground truth.

    Sessions of discharging states share their settings columns. A
    session starts after either one charging state (which, by the
    charging-gap rule, also knocks out the session's first state) or a
    change of settings (which breaks the pair across the boundary). The
    generator counts the pairs that survive by construction and labels
    each from the rate it drew, not from the written battery levels.
    """
    rng = random.Random(seed)
    rows = []
    truth = {"safe": 0, "warning": 0, "critical": 0}
    ts = 1_600_000_000.0
    level = 100.0
    settings = {"wifi": "on", "screen": "on"}
    while len(rows) < n_rows:
        after_charge = False
        if rows:
            ts += rng.uniform(10.0, 40.0)
            if level < 50.0:
                rows.append({"timestamp": ts, "battery_state": "charging",
                             "battery_level": level, "cpu": 5.0,
                             "brightness": 0.0, "temperature": 30.0,
                             "net": "none", **settings})
                level = rng.uniform(95.0, 100.0)
                ts += rng.uniform(300.0, 900.0)
                after_charge = True
            else:
                key = rng.choice(("wifi", "screen"))
                settings[key] = "off" if settings[key] == "on" else "on"
        length = rng.randint(8, 24)
        for k in range(length):
            row = {"timestamp": ts, "battery_state": "discharging",
                   "battery_level": level,
                   "cpu": round(rng.uniform(0.0, 100.0), 2),
                   "brightness": float(rng.randint(0, 255)),
                   "temperature": round(rng.uniform(20.0, 45.0), 1),
                   "net": rng.choice(("none", "wifi", "cell")),
                   **settings}
            rows.append(row)
            if k == length - 1:
                break
            rate = _trace_rate(rng, row)
            if not (after_charge and k == 0):
                truth[_label(rate)] += 1
            dt = rng.uniform(10.0, 40.0)
            ts += dt
            level -= rate * dt / 60.0
    return rows, truth


TRACE_COLUMNS = ("timestamp", "battery_state", "battery_level", "cpu",
                 "brightness", "temperature", "wifi", "screen", "net")


def trace_csv(rows):
    lines = [",".join(TRACE_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def write_inputs(workload, seed, out_dir):
    """Write config.json (and the trace files) for one run; returns the
    trace's ground truth (None for synthetic data)."""
    spec = WORKLOADS[workload]
    config = json.loads(json.dumps(spec["config"]))
    # The search's own seed stays fixed, so the genomes drawn before any
    # selection match across seeds and the work varies with the data only.
    config["master_seed"] = 0
    config["eval"]["seed"] = seed
    data = spec["data"]
    truth = None
    if data["type"] == "synthetic":
        config["dataset"] = dict(data, seed=seed)
    else:
        rows, truth = make_trace(seed, data["rows"])
        with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
            fh.write(trace_csv(rows))
        with open(os.path.join(out_dir, "schema.json"), "w") as fh:
            json.dump(TRACE_SCHEMA, fh, indent=2)
        # resolved against the directory each round prepares into
        config["dataset"] = {"type": "csv", "path": "prep/prepared.csv"}
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return truth
