"""A small end-to-end benchmark with statistical comparison.

Three algorithms, two missing-value rates, two repeats each; then
`report.compare`, the comparison `evomlp stats` writes: Friedman
average ranks over the rate conditions, pairwise Wilcoxon verdicts with
win/tie/loss counts, and the stability score (std of mean accuracy
across rates; lower = more resilient).

Writes CSV/JSON/SVG outputs into demo_output/ and takes a few seconds.
"""

import pathlib

from evomlp.data import synthesize
from evomlp.driver import SearchConfig, run_benchmark
from evomlp.genome import SearchSpace
from evomlp.objective import EvalConfig
from evomlp.report import accuracy_bar_chart, compare, write_json

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

comparison = compare(records, alpha=0.05)
for rate, alg, acc_mean, acc_std, *_ in comparison.summary:
    print(f"  rate={rate:.1f} {alg:8s} accuracy {acc_mean:6.2f} +- "
          f"{acc_std:.2f}")

fried = comparison.friedman
print(f"\nFriedman: chi2={fried['chi2']:.3f} p={fried['p_value']:.3f} "
      f"ranks={dict(zip(comparison.algorithms, fried['average_ranks']))}")
for alg, (w, t, l), stab in zip(comparison.algorithms,
                                comparison.wins_ties_losses,
                                comparison.stability):
    print(f"  {alg:8s} wins/ties/losses = {w}/{t}/{l}   "
          f"stability std = {stab:.2f}")

write_json(out / "friedman.json", fried)
(out / "accuracy_by_algorithm.svg").write_text(
    accuracy_bar_chart(records) + "\n")
print(f"\nwrote {out}/results.jsonl, friedman.json, "
      f"accuracy_by_algorithm.svg")
