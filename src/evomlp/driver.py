"""Layer-growth search per algorithm and the full benchmark grid.

A run sweeps the hidden-layer count from 1 to space.max_layers, spending a
fixed evaluation budget per count; the best genome of the stages so far
is grown to the new layer count and injected into each next stage. A
stage reports its best genome with the EvalResult that scored it, and the
run reports the first stage with the lowest fitness. The benchmark
crosses algorithms x missing rates x repeats, with one fixed mask per
rate so every algorithm faces identical missingness.

The fold split (objective.split_folds) is made by whoever owns the
dataset: run_benchmark makes one per missing rate before any cell runs,
and a caller of layer_growth_search makes it and passes it in, since a
run takes only a split. SearchConfig stores every algorithm in its
canonical spelling and refuses an unknown one on construction.
"""

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import objective
from .data import (MAX_MISSING_RATE, RowParseError, inject_missing,
                   is_missing_rate)
from .genome import (Genome, SearchSpace, build, check_fields, check_value,
                     decode, grow)
from .objective import EvalConfig
from .pbmh import (ALGORITHM_NAMES, ConfigError, canonical_name,
                   check_population, optimize_stage)
from .seeding import derive_seed


@dataclass(frozen=True)
class SearchConfig:
    """One benchmark: the grid, the search budget and the space searched.

    Layer growth runs space.max_layers stages of stage_budget evaluations.
    """

    stage_budget: int = 30
    population_size: int = 10
    repeats: int = 10
    missing_rates: tuple = (0.0, 0.05, 0.2, 0.4)
    algorithms: tuple = ALGORITHM_NAMES
    eval: EvalConfig = field(default_factory=EvalConfig)
    master_seed: int = 0
    space: SearchSpace = field(default_factory=SearchSpace)

    def __post_init__(self):
        check_fields(self)
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        check_population(self.population_size, self.stage_budget)
        bad = [rate for rate in self.missing_rates
               if not is_missing_rate(rate)]
        if bad:
            raise ConfigError(
                f"missing_rates {bad} are not numbers in "
                f"[0, {MAX_MISSING_RATE}]")
        # "de" and "DE", 0 and 0.0 name one experiment: the cell seeds
        # hash the algorithm and repr(rate); canonical_name refuses an
        # unknown algorithm
        object.__setattr__(self, "algorithms",
                           tuple(canonical_name(a) for a in self.algorithms))
        object.__setattr__(self, "missing_rates",
                           tuple(float(rate) for rate in self.missing_rates))
        for key in ("algorithms", "missing_rates"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{key} must not be empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} {list(values)} repeat an entry")


@dataclass
class RunRecord:
    algorithm: str
    missing_rate: float
    repeat: int
    fitness: float
    accuracy: float
    f_measure: float
    architecture: dict
    genome: dict
    stage_traces: list
    n_evaluations: int
    seed: int
    wall_time: float = None
    error: str = None

    def __post_init__(self):
        # an error record may hold None in its float fields
        check_fields(self, none_ok=() if self.error is None else (float,))
        if self.error is None and "learning_rate" in self.architecture:
            check_value("architecture.learning_rate",
                        self.architecture["learning_rate"], float)

    def to_dict(self):
        d = asdict(self)
        for key in ("wall_time", "error"):
            if d[key] is None:
                del d[key]
        return d


def _grow_to(genome, space, n_layers, rng):
    while genome.n_layers < n_layers:
        genome = grow(genome, space, rng)
    return genome


def layer_growth_search(algorithm, split, cfg, seed, deterministic=False):
    """One full run: space.max_layers stages of stage_budget evaluations.

    split is the FoldSplit that objective.split_folds made of a dataset
    under cfg.eval. Returns a RunRecord for the best genome over all
    stages; fitness and the reported accuracy/F-measure come from the
    same evaluation.
    """
    started = time.perf_counter()
    best = None  # the first stage with the lowest best fitness
    stage_traces = []
    for n_layers in range(1, cfg.space.max_layers + 1):
        warm = None if best is None else _grow_to(
            Genome.from_vector(best.x), cfg.space, n_layers,
            np.random.default_rng(derive_seed(seed, "grow", n_layers)))
        stage = optimize_stage(
            algorithm, cfg.space, n_layers,
            lambda g: objective.evaluate(g, split, cfg.eval, cfg.space),
            cfg.population_size, cfg.stage_budget,
            derive_seed(seed, "stage", n_layers), warm_start=warm)
        stage_traces.append(stage.trace.tolist())
        if best is None or stage.fitness < best.fitness:
            best = stage

    genome = Genome.from_vector(best.x)
    spec = decode(genome, cfg.space)
    return RunRecord(
        algorithm=algorithm,
        missing_rate=split.missing_rate,
        repeat=0,
        fitness=best.fitness,
        accuracy=best.value.accuracy,
        f_measure=best.value.f_measure,
        architecture={
            "hidden_layer_sizes": list(spec.hidden_layer_sizes),
            "solver_id": spec.solver_id,
            "solver_name": spec.solver_name,
            "learning_rate": spec.active_params["learning_rate"],
            "active_params": spec.active_params,
        },
        genome=genome.to_dict(),
        stage_traces=stage_traces,
        n_evaluations=sum(len(trace) for trace in stage_traces),
        seed=seed,
        wall_time=None if deterministic else time.perf_counter() - started,
    )


def _benchmark_cell(splits, cfg, deterministic, rate_i, algorithm, rep,
                    run_seed):
    """One grid cell; errors become error records so the grid survives."""
    rate = cfg.missing_rates[rate_i]
    try:
        record = layer_growth_search(algorithm, splits[rate_i], cfg,
                                     run_seed, deterministic=deterministic)
        record.missing_rate = rate
        record.repeat = rep
    except Exception as exc:
        record = RunRecord(
            algorithm=algorithm, missing_rate=rate, repeat=rep,
            fitness=None, accuracy=None, f_measure=None, architecture={},
            genome={}, stage_traces=[], n_evaluations=0, seed=run_seed,
            error=f"{type(exc).__name__}: {exc}")
    return record


# (splits, cfg, deterministic) of the grid a pool worker serves, set once
# per worker by its initializer; never set in the process that runs the grid
_worker_grid = None


def _install_grid(*grid):
    global _worker_grid
    _worker_grid = grid


def _pool_cell(task):
    return _benchmark_cell(*_worker_grid, *task)


def run_benchmark(ds, cfg, out_path=None, deterministic=False,
                  progress=None, jobs=1):
    """Full grid: every (missing rate, algorithm, repeat) cell.

    Masks are drawn once per rate among ds's observed entries
    (data.inject_missing), so all algorithms and repeats face the same
    missingness, and each rate's fold split (objective.FoldSplit) is
    made once, before any cell runs or out_path is opened, so a dataset
    with fewer rows than folds, or a rate above its observed share,
    fails there. A failing cell becomes an error record and the
    benchmark keeps going. Records append to out_path (JSON lines) in
    grid order as they complete; its directory is made, if missing, only
    once the splits exist.

    jobs > 1 runs cells in a process pool of at most one worker per
    cell, whose initializer hands each worker the splits once (under
    fork, by sharing the parent's pages); a task names its cell only. The
    output is identical to jobs=1. A worker that dies mid-cell breaks the
    pool, and run_benchmark raises BrokenProcessPool instead of waiting
    for its cell.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    splits = [objective.split_folds(
        ds if rate == 0 else inject_missing(
            ds, rate, derive_seed(cfg.master_seed, "mask", rate)),
        cfg.eval) for rate in cfg.missing_rates]
    tasks = [(rate_i, algorithm, rep,
              derive_seed(cfg.master_seed, "run", algorithm, rate, rep))
             for rate_i, rate in enumerate(cfg.missing_rates)
             for algorithm in cfg.algorithms
             for rep in range(cfg.repeats)]
    grid = (splits, cfg, deterministic)
    # a pool starts all its workers on the first task, needed or not
    jobs = min(jobs, len(tasks))

    sink = None
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        sink = open(out_path, "w")
    records = []
    pool = None
    try:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(jobs, initializer=_install_grid,
                                       initargs=grid)
            produced = pool.map(_pool_cell, tasks)
        else:
            produced = (_benchmark_cell(*grid, *task) for task in tasks)
        for record in produced:
            records.append(record)
            if sink:
                sink.write(json.dumps(record.to_dict(), sort_keys=True)
                           + "\n")
                sink.flush()
            if progress:
                progress(record)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        if sink:
            sink.close()
    return records


def desk_config(algorithms=("DE", "PSO", "CMA-ES"), master_seed=0):
    """Small configuration for end-to-end runs on synthetic data.

    Narrow networks train to their ceiling within the epoch budget, so
    the whole grid stays desk-scale."""
    return SearchConfig(
        stage_budget=10, population_size=6, repeats=3,
        missing_rates=(0.0, 0.4), algorithms=tuple(algorithms),
        eval=EvalConfig(folds=3, epochs=60, batch_size=32, seed=0),
        master_seed=master_seed,
        space=SearchSpace(neuron_min=8, neuron_max=64, max_layers=2),
    )


def load_records(path):
    """The RunRecords of a results file (JSON lines; blank lines skipped).
    RowParseError naming the line for one that is not a RunRecord, or
    whose (algorithm, missing_rate, repeat) cell an earlier line holds."""
    records, seen = [], {}  # cell -> the line that held it
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    record = build(RunRecord, json.loads(line), "record")
                except ValueError as exc:
                    raise RowParseError(f"line {lineno}: {exc}") from exc
                cell = (record.algorithm, record.missing_rate, record.repeat)
                if cell in seen:
                    raise RowParseError(f"line {lineno}: cell {cell} repeats "
                                        f"line {seen[cell]}")
                seen[cell] = lineno
                records.append(record)
    return records


def config_manifest(cfg, deterministic=False):
    """Everything needed to reproduce a benchmark, minus timestamps."""
    from . import __version__
    from .pbmh import algorithm_constants
    from .solvers import SOLVER_NAMES

    manifest = {
        "config": asdict(cfg),
        "algorithm_constants": algorithm_constants(),
        "solver_names": {str(k): v for k, v in SOLVER_NAMES.items()},
        "version": __version__,
    }
    if not deterministic:
        manifest["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return manifest
