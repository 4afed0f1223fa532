"""The three benchmark workloads, each a config generated from a seed.

A workload is a dict of ``section.key = value`` config entries, the same
form ``noiseattn train --config`` reads; the program only ever sees the
generated entries. The seed drives data generation, noise injection,
initialisation and batch order, so one seed always gives one input.

Every workload fixes its amount of work so that seeds differ in data, not
in epochs: ``na.improvement_threshold`` is set far above any loss change,
so the plateau rule adds a unit every ``2 * patience`` epochs and stops at
``max_units``; ``recursion.min_improvement = -1`` runs every round.
"""

from __future__ import annotations

from dataclasses import dataclass

# The plateau rule adds a unit (or stops) when validation loss improves by
# less than this over 2*patience epochs, which is always.
FIXED_SCHEDULE = "1e9"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: dict  # config entries without seed/out; see config_entries()
    tiny: dict  # overrides for a smoke size that exercises every span, not quality
    error_ceiling: float  # final test error must stay below this; well under chance


def _schedule(pretrain, patience, max_units, rounds, round_epochs):
    return {
        "na.pretrain_epochs": str(pretrain),
        "na.patience": str(patience),
        "na.max_units": str(max_units),
        "na.stage_epochs": str(2 * patience * max_units),
        "na.improvement_threshold": FIXED_SCHEDULE,
        "recursion.iterations": str(rounds),
        "recursion.epochs": str(round_epochs),
        "recursion.min_improvement": "-1",
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mlp_small_batch",
        why="About 1.8k SGD steps at batch 64 on a small MLP, so per-call overhead "
            "(SGD loop, unit routing, label checks, projection) dominates, not matmuls.",
        entries={
            "data.synthetic.kind": "blobs",
            "data.synthetic.classes": "10",
            "data.synthetic.dim": "20",
            "data.synthetic.sigma": "1.0",
            "data.synthetic.separation": "6.0",
            "data.synthetic.n_train": "6000",  # short runs: more repeats per run
            "data.synthetic.n_test": "5000",
            "noise.mode": "uniform",
            "noise.rho": "0.4",
            "arch.input_shape": "20",
            "arch.layers": "dense:20:64,relu,dense:64:10",
            "opt.batch_size": "64",
            **_schedule(pretrain=3, patience=2, max_units=3, rounds=2, round_epochs=3),
        },
        tiny={"data.synthetic.n_train": "600", "data.synthetic.n_test": "200",
              **_schedule(pretrain=1, patience=1, max_units=3, rounds=2, round_epochs=1)},
        error_ceiling=0.3,  # chance 0.9
    ),
    Workload(
        name="conv_patches",
        why="Conv and max-pool forward/backward take most of the run: conv/pool "
            "work shows here, and the two dense-only workloads should not move.",
        entries={
            "data.synthetic.kind": "patches",
            "data.synthetic.classes": "4",
            "data.synthetic.height": "12",
            "data.synthetic.width": "12",
            "data.synthetic.sigma": "1.0",
            "data.synthetic.n_train": "2000",
            "data.synthetic.n_test": "2000",
            "noise.mode": "uniform",
            "noise.rho": "0.3",
            "arch.input_shape": "12x12x1",
            "arch.layers": "conv:1:8:3,relu,pool,flatten,dense:200:32,relu,dense:32:4",
            "opt.batch_size": "64",
            "opt.lr": "0.02",
            **_schedule(pretrain=3, patience=2, max_units=3, rounds=1, round_epochs=3),
        },
        tiny={"data.synthetic.n_train": "200", "data.synthetic.n_test": "100",
              **_schedule(pretrain=1, patience=1, max_units=2, rounds=1, round_epochs=1)},
        error_ceiling=0.3,
    ),
    Workload(
        name="multi_attr_eval",
        why="The only multi-attribute (MultiTrainer) path, and the only large "
            "forward-only load: 100k test rows in 4096-row chunks, each round and in eval.",
        entries={
            "attributes": "a:3,b:4,c:6",
            "data.synthetic.kind": "blobs",
            "data.synthetic.dim": "8",
            "data.synthetic.sigma": "1.0",
            "data.synthetic.separation": "6.0",
            "data.synthetic.n_train": "20000",  # at 6000, 6 of 41 seeds left a head at chance
            "data.synthetic.n_test": "100000",
            "noise.mode": "uniform",
            "noise.rho": "0.3",
            "arch.input_shape": "24",
            "arch.layers": "dense:24:64,relu,dense:64:32,relu",
            "opt.batch_size": "256",
            **_schedule(pretrain=3, patience=2, max_units=2, rounds=2, round_epochs=3),
        },
        tiny={"data.synthetic.n_train": "600", "data.synthetic.n_test": "400",
              **_schedule(pretrain=1, patience=1, max_units=2, rounds=2, round_epochs=1)},
        error_ceiling=0.5,
    ),
)}


def config_entries(workload: Workload, seed: int, out_dir, tiny: bool = False) -> dict:
    """The full config for one run of ``workload`` with ``seed``."""
    entries = {"seed": str(seed), "out": str(out_dir), "data.source": "synthetic"}
    entries.update(workload.entries)
    if tiny:
        entries.update(workload.tiny)
    return entries
