"""Golden artifact hashes: the same config and seed give the same bytes.

Each case runs a tiny config through ``run_experiment`` and pins the
sha256 of ``metrics.csv`` and of every ``snapshot_*.nam`` it writes. The
CLI cases go on from that run: ``recurse`` resumes from
``snapshot_stage0.nam`` with two recursion rounds, and ``eval`` and
``export-q`` read ``snapshot_final.nam``; their artifacts and stdout are
pinned the same way. A change that alters any computed value (summation
order, tie-breaking, signed zeros, rng draws) changes these digests.
Update a digest only in a change that means to alter what the program
computes, and say why there.
"""

import hashlib

import pytest

from noiseattn import build_config, run_experiment
from noiseattn.cli import main as cli_main

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


CLI_GOLDEN = {
    "single_conv": {
        "recurse/metrics.csv": "725595e97f084e0e593e195fab0e7ef3ff471e7e6fda8ac385c2e3f0fa507d65",
        "recurse/snapshot_final.nam": "2867125a9aa10d6a4d86c79387d256fe62852bda19883ffb2c8da00a0b65cbc1",
        "eval stdout": "1a755c540678709547ced170980b106ba241ccb9ab2d7cdd82b22c8fca75a596",
        "export-q stdout": "5dfad5f98d3af2396ac90d0644d424228aaec6dc218587bf2d376283bdf3c068",
        "export-q files": "4d2b1c69a1708885723ef64915e92d995a5c515d28f4ecabf5bb5be49a177dd3",
    },
    "multi_attr": {
        "recurse/metrics.csv": "5c4035c2101b06d70581c8eec6246c42c17758d336989fa7e73853f529a326cc",
        "recurse/snapshot_final.nam": "bb3ae5b7e1d2ce613744de7384eb6d3355c29f502b1706ce89c6fd054ccee726",
        "eval stdout": "988a33e9bacd7008a87cf7b52c837881cf3d751f29713dc7d2dd51e9618684a6",
        "export-q stdout": "38a66ad638e6e888f35e0b3edb3a12a3dc2e610f71bd4fdbf516d9615dabcb9c",
        "export-q files": "4087edd289abcd71849df1ed5c712a3daf783a29b60c0b0df73edf7063cca330",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out_dir):
    paths = [out_dir / "metrics.csv", *sorted(out_dir.glob("snapshot_*.nam"))]
    return {p.name: sha256(p.read_bytes()) for p in paths}


def case_entries(name, out):
    return {"seed": "7", "out": str(out), "data.source": "synthetic",
            **SCHEDULE, **CASES[name]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_hashes(name, tmp_path):
    run_experiment(build_config(case_entries(name, tmp_path / name)))
    assert artifact_digests(tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_resume_eval_export_match_golden_hashes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative --out paths keep stdout free of tmp_path
    entries = {**case_entries(name, "run"), "recursion.iterations": "2"}
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    run_experiment(build_config(case_entries(name, "run")))
    digests = {}

    assert cli_main(["recurse", "--config", "run.cfg", "--snapshot",
                     "run/snapshot_stage0.nam", "--out", "recurse"]) == 0
    for key, digest in artifact_digests(tmp_path / "recurse").items():
        digests[f"recurse/{key}"] = digest
    capsys.readouterr()

    assert cli_main(["eval", "--snapshot", "run/snapshot_final.nam",
                     "--data", "run/test.nld"]) == 0
    digests["eval stdout"] = sha256(capsys.readouterr().out.encode())

    assert cli_main(["export-q", "--snapshot", "run/snapshot_final.nam", "--out", "q"]) == 0
    digests["export-q stdout"] = sha256(capsys.readouterr().out.encode())
    files = sorted((tmp_path / "q").iterdir())
    digests["export-q files"] = sha256(b"".join(
        p.name.encode() + b"\0" + sha256(p.read_bytes()).encode() + b"\n" for p in files))

    assert digests == CLI_GOLDEN[name]
