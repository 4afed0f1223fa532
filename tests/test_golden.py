"""Golden artifact hashes: the same config and seed give the same bytes.

Each case runs a tiny config through ``run_experiment`` and pins the
sha256 of ``metrics.csv`` and of every ``snapshot_*.nam`` it writes. A
change that alters any computed value (summation order, tie-breaking,
signed zeros, rng draws) changes these digests. Update a digest only in a
change that means to alter what the program computes, and say why there.
"""

import hashlib

import pytest

from noiseattn import build_config, run_experiment

SCHEDULE = {
    "noise.mode": "uniform",
    "noise.rho": "0.3",
    "opt.batch_size": "32",
    "na.pretrain_epochs": "1",
    "na.patience": "1",
    "na.max_units": "2",
    "na.stage_epochs": "4",
    "na.improvement_threshold": "1e9",  # add a unit every 2*patience epochs
    "recursion.iterations": "1",
    "recursion.epochs": "1",
    "recursion.min_improvement": "-1",
}

CASES = {
    "single_conv": {
        "data.synthetic.kind": "patches",
        "data.synthetic.classes": "4",
        "data.synthetic.height": "12",
        "data.synthetic.width": "12",
        "data.synthetic.n_train": "200",
        "data.synthetic.n_test": "100",
        "arch.input_shape": "12x12x1",
        "arch.layers": "conv:1:8:3,relu,pool,flatten,dense:200:32,relu,dense:32:4",
        "opt.lr": "0.02",
    },
    "multi_attr": {
        "attributes": "a:3,b:4",
        "data.synthetic.kind": "blobs",
        "data.synthetic.dim": "4",
        "data.synthetic.n_train": "240",
        "data.synthetic.n_test": "120",
        "arch.input_shape": "8",
        "arch.layers": "dense:8:16,relu",
    },
}

GOLDEN = {
    "single_conv": {
        "metrics.csv": "93980008407273045c39ff0260b35903b6b237559258b392a17e6e1e8b889297",
        "snapshot_final.nam": "61033c6a060d317b181692e46f88d2cddca8987dd44c9a1750f8cf11ae9fb5d3",
        "snapshot_stage0.nam": "60b1faefdfbed8ead56813d40ad1ffab7f4c96e4e410ad6e9fdfdf25174beb51",
    },
    "multi_attr": {
        "metrics.csv": "54eab5c336d3e7b691028f3406234bb69c08d87cf1511dc7ec3d97131da1e512",
        "snapshot_final.nam": "0262f57256fd57b8e3d5d0caedc7b95628e14508d771995bcb1c1853bd0e12c7",
        "snapshot_stage0.nam": "aa821cb9352d7ec7b8bce83c95ccb873c28fd192b325fb51f1e078182dbd0ecd",
    },
}


def artifact_digests(out_dir):
    paths = [out_dir / "metrics.csv", *sorted(out_dir.glob("snapshot_*.nam"))]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_hashes(name, tmp_path):
    entries = {"seed": "7", "out": str(tmp_path / name), "data.source": "synthetic",
               **SCHEDULE, **CASES[name]}
    run_experiment(build_config(entries))
    assert artifact_digests(tmp_path / name) == GOLDEN[name]
