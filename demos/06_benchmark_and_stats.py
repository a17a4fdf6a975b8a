"""A small end-to-end benchmark with statistical comparison.

Three algorithms, two missing-value rates, two repeats each; then the
nonparametric toolkit: Friedman average ranks over the rate conditions,
pairwise Wilcoxon verdicts with win/tie/loss counts, and the stability
score (std of mean accuracy across rates; lower = more resilient).

Writes CSV/JSON/SVG outputs into demo_output/ and takes a few seconds.
"""

import json
import pathlib

import numpy as np

from evomlp.data import synthesize
from evomlp.driver import SearchConfig, run_benchmark
from evomlp.genome import SearchSpace
from evomlp.objective import EvalConfig
from evomlp.report import accuracy_bar_chart, summary_rows
from evomlp.stats import (friedman, pairwise_verdicts, stability,
                          win_tie_loss)

out = pathlib.Path("demo_output")
out.mkdir(exist_ok=True)

ds = synthesize(300, 10, 3, separation=4.0, seed=2)
cfg = SearchConfig(
    stage_budget=8, population_size=4, repeats=2,
    missing_rates=(0.0, 0.4), algorithms=("DE", "PSO", "CMA-ES"),
    eval=EvalConfig(folds=3, epochs=30, batch_size=32, seed=0),
    master_seed=5,
    space=SearchSpace(neuron_min=8, neuron_max=64, max_layers=2),
)

records = run_benchmark(ds, cfg, out_path=str(out / "results.jsonl"),
                        deterministic=True)
print(f"benchmark: {len(records)} runs")

rows = summary_rows(records)
for row in rows:
    print(f"  rate={row['missing_rate']:.1f} {row['algorithm']:8s} "
          f"accuracy {row['accuracy_mean']:6.2f} +- "
          f"{row['accuracy_std']:.2f}")

algorithms = list(cfg.algorithms)
mean_acc = {(r["algorithm"], r["missing_rate"]): r["accuracy_mean"]
            for r in rows}
matrix = [[mean_acc[(a, rate)] for a in algorithms]
          for rate in cfg.missing_rates]

fried = friedman(matrix)
print(f"\nFriedman: chi2={fried['chi2']:.3f} p={fried['p_value']:.3f} "
      f"ranks={dict(zip(algorithms, fried['average_ranks']))}")

vectors = []
for alg in algorithms:
    vec = [r.accuracy for r in sorted(
        (r for r in records if r.algorithm == alg),
        key=lambda r: (r.missing_rate, r.repeat))]
    vectors.append(np.array(vec))
verdicts = pairwise_verdicts(vectors, alpha=0.05)
for alg, (w, t, l) in zip(algorithms, win_tie_loss(verdicts)):
    stab = stability([mean_acc[(alg, rate)]
                      for rate in cfg.missing_rates])
    print(f"  {alg:8s} wins/ties/losses = {w}/{t}/{l}   "
          f"stability std = {stab:.2f}")

(out / "friedman.json").write_text(json.dumps(fried, indent=2) + "\n")
(out / "accuracy_by_algorithm.svg").write_text(
    accuracy_bar_chart(records) + "\n")
print(f"\nwrote {out}/results.jsonl, friedman.json, "
      f"accuracy_by_algorithm.svg")
