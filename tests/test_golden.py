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
import json

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
    "single_mlp": {  # dense-only OneHead path, with weight decay on the network
        "data.synthetic.kind": "blobs",
        "data.synthetic.classes": "4",
        "data.synthetic.dim": "6",
        "data.synthetic.n_train": "240",
        "data.synthetic.n_test": "120",
        "arch.input_shape": "6",
        "arch.layers": "dense:6:16,relu,dense:16:4",
        "opt.weight_decay": "1e-4",
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
    "single_mlp": {
        "metrics.csv": "29d544933bfad45a344d61df41d04d6f82914a308cde50426e518e73bfae4db7",
        "snapshot_final.nam": "c3bb79084bb65c05b1e50a9d1028b946e9fbb40ddd22b43c8e5658e109d2b78c",
        "snapshot_stage0.nam": "1a04315f6acf0c65de4a957be11ad96682393e4d86a955e77d7519dce69fb799",
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
    "single_mlp": {
        "recurse/metrics.csv": "de05d8e11beed47d7a7c9012e2e57f550701c60ae7d95a1b6d2836be3e85a4ae",
        "recurse/snapshot_final.nam": "3c02390cc591633af58570e295d7766b68a2c2cf15a6bcd21cd15af88a04025e",
        "eval stdout": "1d11e374fb81b3b77abe156587e696f0b1e8ed598dda7b59e0045818ca994aea",
        "export-q stdout": "5dfad5f98d3af2396ac90d0644d424228aaec6dc218587bf2d376283bdf3c068",
        "export-q files": "cbd8409fa583d71c3ead3625ad88be37e74b38d80310f7ad830e3ef0ecfbfb94",
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


# The data, noise, report and export files of the run, and the outputs of
# the CLI ``synth`` and ``inject`` commands. report.json is pinned without
# its two run-dependent fields, ``wall_clock_s`` and ``out_dir``.
FILE_GOLDEN = {
    "single_conv": {
        "report.json": "491d4e2f397c4ac501d4d410fe27285f1fb5806550d1f9d2f5f6307592ae6652",
        "flips.csv": "f38e3089eeff5f73e31fc8ca23439212ee82e272da08f8f5def6d5eaf5fc6661",
        "train.nld": "65d5c4e448f2165f055ad1e722be18446edf8ba190a8bc4ed67565ff7e71dd4a",
        "test.nld": "30f86e611e00f838da7eefed45e648135640470d6faaf2435297a87847281a29",
        "noisy_train.nld": "4b1fd9b939a70382a12ab069910e007ef1c9102986f0df68317c2d94c5ec7f40",
        "q_stage0_*": "365c92a780a618da2d8480b3244d777abab40f3012f86de2c57273bf7b3734a5",
        "q_final_*": "f99e2eb87e85b8077c54f8cac9efb6e54f8763a8514a79320c1c58be1bc900ab",
        "synth stdout": "0148ec1cae344716a9279165ff392f97fb629784a707bea00d5127453f987610",
        "synth files": "24fb17b343323a1445051ef0ee15d140cfec25b0bd97ee86947dc61cc4aa03b2",
        "inject stdout": "603f7d3981fc1c8d90131dd4e197624bf3813763e912dbfb29f4be307641bd8b",
        "inject files": "c5b53c10c0cac0ca0e9e2ab04274da788a4aa1ff0efe2187cebcfe97407a7839",
    },
    "multi_attr": {
        "report.json": "7c45d621097e5ee0b8ac85ed6caa070347555070196f51f043c3f21fdf3f7bb7",
        "flips.csv": "cded49ec545dd6c87a88ad5b2ac7b7e883fd3287439266b8eb4decb5369fa45b",
        "train.nld": "f3e0521684f108c0c0980f7236950b35362430a3d7d0b46012224c1301d7cac5",
        "test.nld": "53a46c39a80e37de45d1ecb45ba4811b556afb192ec54e0aa8e5fcd69601273f",
        "noisy_train.nld": "cc07e3e622db3905b9145fe73b7809ba54386c2b84556a5c6af93560d014cffe",
        "q_stage0_*": "654bd8b3486b31491e5153cdd968a77991d331698325ccdadf21db093fee597a",
        "q_final_*": "e16298f2388b3503f16db5544e67aa731575dfcbf90b4ae9ed7cc9332996ebe4",
        "synth stdout": "622d901ba1342312b275e3439d84fb92e1e94baf3daabb8c804bfb5b4e48d044",
        "synth files": "8693634b4838a21da4701a390683ff7cb000451aa169a6f00babf83acd9ca1c2",
        "inject stdout": "097a03e21f5d94a961b0c69b4f9bc1cc37a1bae4622ea8b7023816c436587035",
        "inject files": "0904c5576311f480fd158c932fdba05b737932c823e0bf18320be117028335c6",
    },
    "single_mlp": {
        "report.json": "378cd3ed75df0108c267a2d8d89f531b503aa3f4274596526088e2ec41591ee3",
        "flips.csv": "3a8e1d438dec857372fd25eaef7200ce728802320c030d538893a998e502d5d3",
        "train.nld": "287fe7a8794c461fde689d815b8ee92b16b13519d7fbaa6f2ef92693304acdc0",
        "test.nld": "fc39748b665ee300272c4516a9592bd8fc1b198b22561dd1929464325520657c",
        "noisy_train.nld": "a4e5ada3dbdfa0f3795594fa19a373ea2414c883c87184864cca4da3dabf256a",
        "q_stage0_*": "e7d2ac529939d8c4e09dffee39ac5193a4c627ed3765ba0193d40cfca8d89a4c",
        "q_final_*": "1c2835c63721f70ee0fa0cc6a16c07be5c6eb5dbe2dc9608289d692ffb4ef1d7",
        "synth stdout": "622d901ba1342312b275e3439d84fb92e1e94baf3daabb8c804bfb5b4e48d044",
        "synth files": "6f9c1930af057c489f0c296e07b317f037422e93779b0203bfb3bb884ddf082d",
        "inject stdout": "54fb8726cd563742112671ad7b2dd9d45d5fff7af564cdefa138a82197b6e816",
        "inject files": "792fbd02339d1cc631932bb5510f20e96cdc3c9557f5f33ff1fe0b1ead82f74b",
    },
}


def files_digest(paths):
    """One digest over the names and contents of ``paths``."""
    return sha256(b"".join(p.name.encode() + b"\0" + sha256(p.read_bytes()).encode() + b"\n"
                           for p in sorted(paths)))


def report_digest(path):
    report = json.loads(path.read_text())
    del report["wall_clock_s"], report["out_dir"]
    return sha256(json.dumps(report, indent=2).encode())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_files_and_cli_synth_inject_match_golden_hashes(name, tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in case_entries(name, "cli").items()))
    run_experiment(build_config(case_entries(name, "run")))
    run = tmp_path / "run"
    digests = {"report.json": report_digest(run / "report.json")}
    for file in ("flips.csv", "train.nld", "test.nld", "noisy_train.nld"):
        digests[file] = sha256((run / file).read_bytes())
    for tag in ("stage0", "final"):
        digests[f"q_{tag}_*"] = files_digest(run.glob(f"q_{tag}_*"))

    assert cli_main(["synth", "--config", "run.cfg", "--out", "synth"]) == 0
    digests["synth stdout"] = sha256(capsys.readouterr().out.encode())
    digests["synth files"] = files_digest((tmp_path / "synth").iterdir())
    assert cli_main(["inject", "--config", "run.cfg", "--data", "synth/train.nld",
                     "--out", "inject"]) == 0
    digests["inject stdout"] = sha256(capsys.readouterr().out.encode())
    digests["inject files"] = files_digest((tmp_path / "inject").iterdir())

    assert digests == FILE_GOLDEN[name]
