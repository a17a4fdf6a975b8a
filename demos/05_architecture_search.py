"""Layer-growth search on synthetic data, under missing values.

The genome holds 8 training hyperparameters plus one neuron-count gene
per hidden layer. The driver sweeps the layer count from 1 upward,
spending a fixed evaluation budget per count and carrying the grown
incumbent into each next stage. Fitness is 3-fold cross-validated
classification error of the decoded, solver-trained masked network.

Takes around half a minute.
"""

from evomlp.data import inject_missing, synthesize
from evomlp.driver import desk_config, layer_growth_search
from evomlp.objective import split_folds

ds = synthesize(600, 12, 3, separation=4.0, seed=7)
masked = inject_missing(ds, rate=0.4, seed=1)
print(f"dataset: {ds.n} rows, {ds.p} features, 40% of entries masked")

cfg = desk_config()
record = layer_growth_search("DE", split_folds(masked, cfg.eval), cfg, seed=3)

arch = record.architecture
print(f"\nbest genome after {record.n_evaluations} evaluations:")
print(f"  hidden layers : {arch['hidden_layer_sizes']}")
print(f"  solver        : {arch['solver_name']}")
print(f"  learning rate : {arch['learning_rate']:.4f}")
print(f"  active params : {arch['active_params']}")
print(f"  cv accuracy   : {record.accuracy:.2f}%")
print(f"  cv F-measure  : {record.f_measure:.2f}%")

print("\nper-stage incumbent curves (fitness = percent error):")
for stage, trace in enumerate(record.stage_traces, start=1):
    best = min(trace)
    print(f"  {stage} hidden layer(s): stage best {best:6.2f}")
