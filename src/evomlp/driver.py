"""Layer-growth search per algorithm and the full benchmark grid.

A run sweeps the hidden-layer count from 1 to space.max_layers, spending a
fixed evaluation budget per count; the best genome of the stages so far
is grown to the new layer count and injected into each next stage. A
stage reports its best genome with the EvalResult that scored it, and the
run reports the first stage with the lowest fitness. The benchmark
crosses algorithms x missing rates x repeats, with one fixed mask per
rate so every algorithm faces identical missingness.
"""

import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import objective
from .data import (MAX_MISSING_RATE, LabeledDataset, as_masked,
                   inject_missing, is_missing_rate)
from .genome import SearchSpace, check_int_fields, decode, grow
from .objective import EvalConfig, FoldSplit
from .pbmh import (ALGORITHM_NAMES, ConfigError, OptimizerConfig,
                   canonical_name, optimize_stage)
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
        check_int_fields(self)
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.population_size < 4:
            raise ConfigError("population_size must be >= 4")
        if self.stage_budget < self.population_size:
            raise ConfigError(
                f"stage_budget {self.stage_budget} smaller than "
                f"population_size {self.population_size}")
        bad = [rate for rate in self.missing_rates
               if not is_missing_rate(rate)]
        if bad:
            raise ConfigError(
                f"missing_rates {bad} are not numbers in "
                f"[0, {MAX_MISSING_RATE}]")
        # an unknown algorithm is kept as given: its cells fail alone
        for key, values in (
                ("algorithms", [_known_or_given(a) for a in self.algorithms]),
                ("missing_rates", self.missing_rates)):
            if not values:
                raise ConfigError(f"{key} must not be empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} {list(values)} repeat an entry")


def _known_or_given(algorithm):
    try:
        return canonical_name(algorithm)
    except ConfigError:
        return algorithm


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

    def to_dict(self):
        d = asdict(self)
        for key in ("wall_time", "error"):
            if d[key] is None:
                del d[key]
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _grow_to(genome, space, n_layers, rng):
    while genome.n_layers < n_layers:
        genome = grow(genome, space, rng)
    return genome


def layer_growth_search(algorithm, ds, cfg, seed, deterministic=False):
    """One full run: space.max_layers stages of stage_budget evaluations.

    ds is a dataset or the FoldSplit of one made with cfg.eval. Returns a
    RunRecord for the best genome over all stages; fitness and the
    reported accuracy/F-measure come from the same evaluation.
    """
    started = time.perf_counter()
    split = ds if isinstance(ds, FoldSplit) else objective.split_folds(
        ds, cfg.eval)
    best = None  # the first stage with the lowest best fitness
    stage_traces = []
    for n_layers in range(1, cfg.space.max_layers + 1):
        warm = None if best is None else _grow_to(
            best.best_genome, cfg.space, n_layers,
            np.random.default_rng(derive_seed(seed, "grow", n_layers)))
        stage = optimize_stage(
            OptimizerConfig(algorithm=algorithm,
                            population_size=cfg.population_size,
                            stage_budget=cfg.stage_budget,
                            seed=derive_seed(seed, "stage", n_layers)),
            cfg.space, n_layers,
            lambda g: objective.evaluate(g, split, cfg.eval, cfg.space),
            warm_start=warm)
        stage_traces.append(list(stage.trace))
        if best is None or stage.best_fitness < best.best_fitness:
            best = stage

    spec = decode(best.best_genome, cfg.space)
    return RunRecord(
        algorithm=algorithm,
        missing_rate=split.missing_rate,
        repeat=0,
        fitness=best.best_fitness,
        accuracy=best.best_value.accuracy,
        f_measure=best.best_value.f_measure,
        architecture={
            "hidden_layer_sizes": list(spec.hidden_layer_sizes),
            "solver_id": spec.solver_id,
            "solver_name": spec.solver_name,
            "learning_rate": spec.active_params["learning_rate"],
            "active_params": spec.active_params,
        },
        genome=best.best_genome.to_dict(),
        stage_traces=stage_traces,
        n_evaluations=sum(len(trace) for trace in stage_traces),
        seed=seed,
        wall_time=None if deterministic else time.perf_counter() - started,
    )


def _benchmark_cell(task):
    """One grid cell; errors become error records so the grid survives."""
    split, algorithm, rate, rep, cfg, run_seed, deterministic = task
    try:
        record = layer_growth_search(algorithm, split, cfg, run_seed,
                                     deterministic=deterministic)
        record.missing_rate = rate
        record.repeat = rep
    except Exception as exc:
        record = RunRecord(
            algorithm=algorithm, missing_rate=rate, repeat=rep,
            fitness=None, accuracy=None, f_measure=None, architecture={},
            genome={}, stage_traces=[], n_evaluations=0, seed=run_seed,
            error=f"{type(exc).__name__}: {exc}")
    return record


def run_benchmark(ds, cfg, out_path=None, deterministic=False,
                  progress=None, jobs=1):
    """Full grid: every (missing rate, algorithm, repeat) cell.

    Masks are drawn once per rate, so all algorithms and repeats face the
    same missingness, and each rate's fold split (objective.FoldSplit) is
    made once, before any cell runs, and handed to its cells (pickled
    with each task when jobs > 1). A failing cell becomes an error record
    and the benchmark keeps going. Records append to out_path (JSON
    lines) in grid order as they complete; jobs > 1 runs cells in a
    process pool (the output is identical, persistence stays ordered).
    """
    if not isinstance(ds, LabeledDataset):
        raise TypeError("run_benchmark expects a complete LabeledDataset")
    if ds.n < cfg.eval.folds:
        # every cell would fail in its first evaluation
        raise ConfigError(
            f"dataset has {ds.n} rows, fewer than {cfg.eval.folds} folds")

    tasks = []
    for rate in cfg.missing_rates:
        masked = (as_masked(ds) if rate == 0 else
                  inject_missing(ds, rate,
                                 derive_seed(cfg.master_seed, "mask",
                                             rate)))
        split = objective.split_folds(masked, cfg.eval)
        for algorithm in cfg.algorithms:
            for rep in range(cfg.repeats):
                run_seed = derive_seed(cfg.master_seed, "run", algorithm,
                                       rate, rep)
                tasks.append((split, algorithm, rate, rep, cfg, run_seed,
                              deterministic))

    sink = open(out_path, "w") if out_path else None
    records = []
    pool = multiprocessing.Pool(jobs) if jobs > 1 else None
    try:
        produced = (pool.imap(_benchmark_cell, tasks) if pool
                    else map(_benchmark_cell, tasks))
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
            pool.close()
            pool.join()
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
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
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
