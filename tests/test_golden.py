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

The digests hold only for the code paths of the host they were recorded
on: another OpenBLAS kernel or numpy SIMD dispatch gives other bits in
``exp``, ``log`` and the matmuls (ROADMAP item 7). ``RECORDED_ON`` names
that host, and a mismatch prints it beside the host that ran the test.
Across processes and BLAS thread counts on one host the bytes hold; the
last test checks that, with no digest, on any host.
"""

import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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
# The single_conv network on 630 fit, 70 validation and 600 test rows: the
# fit and test passes span several 256-row blocks of the forward-only conv
# path, each with a ragged last block.
CASES["conv_blocks"] = {**CASES["single_conv"], "data.synthetic.n_train": "700",
                        "data.synthetic.n_test": "600"}

# The single_conv data through a one-channel conv. At out_ch = 1 the bias
# gradient reduces one contiguous column, pairwise, where wider layers add
# their rows in order; this case pins that rounding.
CASES["conv_one_channel"] = {**CASES["single_conv"],
                             "arch.layers": "conv:1:1:3,relu,pool,flatten,dense:25:4"}

# The single_conv data through two conv layers. Every other case's conv is
# the first layer, whose backward computes no input gradient; here the
# second conv's backward scatters its input gradient into the first's
# output, 36 times in the run.
CASES["conv_stack"] = {**CASES["single_conv"],
                       "arch.layers": "conv:1:4:3,relu,conv:4:8:3,relu,pool,flatten,dense:128:4"}

# multi_attr with three units per attribute: each attribute adds two, and the
# run adds them interleaved (a, b, a, b), not model by model as a snapshot
# holds them.
CASES["multi_three_units"] = {**CASES["multi_attr"], "na.max_units": "3"}

# Ten classes, the paper's CIFAR-10 and SVHN count, on 1350 fit, 150
# validation and 600 test rows. Training batches stay under nn.SWEEP_ROWS
# rows, while the validation, teacher and evaluation passes hold more: the
# case pins both softmax paths for eight classes and more.
CASES["ten_classes"] = {
    "data.synthetic.kind": "blobs",
    "data.synthetic.classes": "10",
    "data.synthetic.dim": "8",
    "data.synthetic.n_train": "1500",
    "data.synthetic.n_test": "600",
    "arch.input_shape": "8",
    "arch.layers": "dense:8:16,relu,dense:16:10",
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
    "conv_blocks": {
        "metrics.csv": "94ec7ef891b1fcc7ab3ad70dd33aa7427a85914613b3f97fea7ebc15590af932",
        "snapshot_final.nam": "a33142b5243517601f6f7f1eca6e0ecac472f9c74de9378905785615bb2da7dc",
        "snapshot_stage0.nam": "7a19ae49d8bd3172ec3b33ddca7809658d198f31c3da93d6faae1ec707167148",
    },
    "conv_one_channel": {
        "metrics.csv": "e897aec86ee824f4b8d0e9b13c3da5675694c3f2e12585b7385cca4ad1ba39e1",
        "snapshot_final.nam": "04ea03fcee54df4b228e75d774c91aee9a28ffac0cdc067b8ae534818f0f79d1",
        "snapshot_stage0.nam": "3d06071f9da9378fc3563a8cdee7f8018def64f85441f71b86c18d98833d6ab8",
    },
    "conv_stack": {
        "metrics.csv": "207baab385b7a1d88a41969d7368662349e995a63f9a83aeeca61180b8af862d",
        "snapshot_final.nam": "3a1b4586e6aab3c0fa756bb7c442306cb55577c7b9fcec3b3dfd2d98a677004b",
        "snapshot_stage0.nam": "934508d8545169ae3d6b4885fb9772ed0fc471633e57475537f5bb474f1ad20a",
    },
    "multi_three_units": {
        "metrics.csv": "e28f894c0a86559fde8a239731c39f1626330a12b2a0835b2e2cedcb131217a7",
        "snapshot_final.nam": "2b5165a567b98d2961e76ec37ebe4049ddc82cca4866fa14a5c26b8e0eae749c",
        "snapshot_stage0.nam": "6ef2bb9944cf24f51956e8f2480ff5e9ad8c4cc3b871c546d4000a45ceba8d46",
    },
    "ten_classes": {
        "metrics.csv": "a6c1f8df617bc303ff6ed98f4c93c8041cace7772175a7c471f69fcb70182158",
        "snapshot_final.nam": "994bf33253dd1a549a084019dc902a59cc8710e591ba65217e17d3f6b9d9303f",
        "snapshot_stage0.nam": "3090b8b436aaa3b99a2c08f62c82b7ec7f72d2430d93fe8766105681243b0e69",
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
    "conv_blocks": {
        "recurse/metrics.csv": "12336021ad37b0abd802dc5ef677affc8472c322e6640f6e13ba2a06e7578895",
        "recurse/snapshot_final.nam": "a27ecb028129bae4fa93cc37ef1514554ab462f84ffcf18e6c78e14392923de4",
        "eval stdout": "e3fb8de1a6b6263207ee853637eeed4dc3762fb34c042ed389c65e631ec4c196",
        "export-q stdout": "5dfad5f98d3af2396ac90d0644d424228aaec6dc218587bf2d376283bdf3c068",
        "export-q files": "76bdf63caf974a8f6baa71abcc25ec0eaffff495ce2bb3bf167bc51f9f839ef9",
    },
    "conv_one_channel": {
        "recurse/metrics.csv": "29a02c101090511701f1b17709ad41194ebe85ebc8b268db970ec4ea1a409b69",
        "recurse/snapshot_final.nam": "707c4105ab0f9f725b8b019edf593e1a39918e05ffbfe9d04b83b5a0ba82ed3b",
        "eval stdout": "699377512c263a1d7acb6f6c49f21be931f33d1157a485aa3c6bcb3ea1cd1d7f",
        "export-q stdout": "5dfad5f98d3af2396ac90d0644d424228aaec6dc218587bf2d376283bdf3c068",
        "export-q files": "f8e5117ba500820ede6866ddd1b3a9672ffc5a7193d8f4f3d53c18a9b60dc468",
    },
    "conv_stack": {
        "recurse/metrics.csv": "12220c4c6a56079340aee39e0df1013a75b6c26ec4d442b58fee7ab935e10cb9",
        "recurse/snapshot_final.nam": "3a9ff93c4d8520777c0e1eb0e6362232e4b4e65debb9aa7fbe2f084da4e9940d",
        "eval stdout": "43f1ad5af175b434238d91dcad8238e35d606939e1690de76cfc6585aefdd479",
        "export-q stdout": "5dfad5f98d3af2396ac90d0644d424228aaec6dc218587bf2d376283bdf3c068",
        "export-q files": "703b3f18e3791e01766abf90ad5397c7f0c80f27c599b5a0654c6efb3fdbf84c",
    },
    "multi_three_units": {
        "recurse/metrics.csv": "755d37a7a0ee9ed48de230468a906f85e6f87f8e5591aa9ba39bda0f14a99dac",
        "recurse/snapshot_final.nam": "3254085e2fb08e45dcfaf7ea108b70369b140fb030266d7b84db5d7f02eb13e9",
        "eval stdout": "5a43a2be06c2292141668d2179b1382ce66aa3f29f988936c0a7eda468428c8c",
        "export-q stdout": "ceb7a6f55b75dcfbb658f01674384a163efc7f3030dd7e11d05cb4eb32faa74d",
        "export-q files": "7fd3c2ccf3e0eb448c6f69fec2503c37ffbcf01df6dc28cb1f68d5d2ca6d32de",
    },
    "ten_classes": {
        "recurse/metrics.csv": "b107fd1044b26121671ab8fcb14ec2551b1c8d725b0dcb8f02afa600dd3bce77",
        "recurse/snapshot_final.nam": "06db1fbe31877438f1153b6326fabe2dc32350d303d53bdfb5deb2cf24ab2c92",
        "eval stdout": "706771b3d818ae7b2d243f59097de6333e2bbad29bee7db33feb8351d7151f8f",
        "export-q stdout": "5dfad5f98d3af2396ac90d0644d424228aaec6dc218587bf2d376283bdf3c068",
        "export-q files": "b8d270fafbf463ec2c50cb5627562200c8dd2cd3f226fca20d513758903da1a5",
    },
}


RECORDED_ON = {
    "numpy": "2.4.6",
    "OpenBLAS": "0.3.31",
    "OpenBLAS core": "SkylakeX",
    "numpy dispatch": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


def this_machine() -> dict[str, str]:
    """The ``RECORDED_ON`` fields of this process. OpenBLAS is read through
    ``ctypes`` from the library that numpy ships; a value that cannot be read
    is ``unknown``."""
    found = dict.fromkeys(RECORDED_ON, "unknown")
    found["numpy"] = np.__version__
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        found["numpy dispatch"] = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    except ImportError:
        pass
    try:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        for read in (config, core):
            read.argtypes, read.restype = [], ctypes.c_char_p
        found["OpenBLAS core"] = core().decode()
        found["OpenBLAS"] = "".join(re.findall(r"^OpenBLAS (\d+\.\d+\.\d+)",
                                               config().decode())) or "unknown"
    except (StopIteration, OSError, AttributeError):
        pass
    return found


def machines() -> str:
    """The message of a digest mismatch: the host the digests were recorded
    on and the one that ran the test."""
    return f"digests recorded on {RECORDED_ON}; this host is {this_machine()}"


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
    assert artifact_digests(tmp_path / name) == GOLDEN[name], machines()


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

    assert digests == CLI_GOLDEN[name], machines()


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
    "conv_blocks": {
        "report.json": "72bb3eb3385538b92807b094d2ac0232b58636837deb3b7cbec62379b58ba955",
        "flips.csv": "c81a230f90867ad15244b677dc106f27d775572fc4f1b569811af7a076b4d5c7",
        "train.nld": "d83dae0847f9fe1176d6216cd2d56b71dab25e31d5ad129f4214dc69bef6e6b2",
        "test.nld": "36c52636eeea2b142049c37b00d29c0b30e1860bfefbd460fc749c29a3c19a89",
        "noisy_train.nld": "b7427965318a6e64c884eeece684808deb3d793fda8c2c815bd0c70ae5082cdd",
        "q_stage0_*": "be91eb339d522db12be178388bc32a5c74631ea9ae275f7d00b2cdc68d61478a",
        "q_final_*": "cdb7c440378c275b3699a4c9ae9ba4edc313c02ca00ead61a419bb0fa7cf4c1c",
        "synth stdout": "9e90a3af5ee5d7d371ebcfcdfd0bc68e8d5ddaaf2aab84c434136c9c2afdab54",
        "synth files": "0831115cfa5cb8de694ed1d81d913a907ce9712bd21bc4c717be8d8ab050c50d",
        "inject stdout": "b553c115f599ead2fb4dbe246c5472d3c604d68b4c93de63f136a84811b637e9",
        "inject files": "93445e4c5e630d06e619ecd68ad5bfc9ad996bf67c4c4829ed30324a8ce98749",
    },
    "conv_one_channel": {
        "report.json": "aa0a9e0f95f5eaa16717eb901e481f65e4ed473745a002ad0234f28b882fa418",
        "flips.csv": "f38e3089eeff5f73e31fc8ca23439212ee82e272da08f8f5def6d5eaf5fc6661",
        "train.nld": "65d5c4e448f2165f055ad1e722be18446edf8ba190a8bc4ed67565ff7e71dd4a",
        "test.nld": "30f86e611e00f838da7eefed45e648135640470d6faaf2435297a87847281a29",
        "noisy_train.nld": "4b1fd9b939a70382a12ab069910e007ef1c9102986f0df68317c2d94c5ec7f40",
        "q_stage0_*": "b05a4c6f25fe57ce0a4002057a27e8007b0b9d295ce122ec3f7ae5b6c73831a3",
        "q_final_*": "8823f03270c71acd950af489e5044950e531ff3e479a95426bfa9bdc327d71a7",
        "synth stdout": "0148ec1cae344716a9279165ff392f97fb629784a707bea00d5127453f987610",
        "synth files": "24fb17b343323a1445051ef0ee15d140cfec25b0bd97ee86947dc61cc4aa03b2",
        "inject stdout": "603f7d3981fc1c8d90131dd4e197624bf3813763e912dbfb29f4be307641bd8b",
        "inject files": "c5b53c10c0cac0ca0e9e2ab04274da788a4aa1ff0efe2187cebcfe97407a7839",
    },
    "conv_stack": {
        "report.json": "c4ce53cd91063c7850ea790169b54f56e057ba1a289195d28fe647665b24cef0",
        "flips.csv": "f38e3089eeff5f73e31fc8ca23439212ee82e272da08f8f5def6d5eaf5fc6661",
        "train.nld": "65d5c4e448f2165f055ad1e722be18446edf8ba190a8bc4ed67565ff7e71dd4a",
        "test.nld": "30f86e611e00f838da7eefed45e648135640470d6faaf2435297a87847281a29",
        "noisy_train.nld": "4b1fd9b939a70382a12ab069910e007ef1c9102986f0df68317c2d94c5ec7f40",
        "q_stage0_*": "2074127b5f4cf07f83b9abe1f24ac38e85f969c30239995bac27467689b928d2",
        "q_final_*": "517bc6b3eeee497adee871caa19ce4946826e20a3a5867017c7b172039ce17e0",
        "synth stdout": "0148ec1cae344716a9279165ff392f97fb629784a707bea00d5127453f987610",
        "synth files": "24fb17b343323a1445051ef0ee15d140cfec25b0bd97ee86947dc61cc4aa03b2",
        "inject stdout": "603f7d3981fc1c8d90131dd4e197624bf3813763e912dbfb29f4be307641bd8b",
        "inject files": "c5b53c10c0cac0ca0e9e2ab04274da788a4aa1ff0efe2187cebcfe97407a7839",
    },
    "multi_three_units": {
        "report.json": "33dd3b6f0b984059b5df4984130783887401663599a4e42ba54a3d3a87435d3e",
        "flips.csv": "cded49ec545dd6c87a88ad5b2ac7b7e883fd3287439266b8eb4decb5369fa45b",
        "train.nld": "f3e0521684f108c0c0980f7236950b35362430a3d7d0b46012224c1301d7cac5",
        "test.nld": "53a46c39a80e37de45d1ecb45ba4811b556afb192ec54e0aa8e5fcd69601273f",
        "noisy_train.nld": "cc07e3e622db3905b9145fe73b7809ba54386c2b84556a5c6af93560d014cffe",
        "q_stage0_*": "6a4b5d7c42bed1403558e7714e4712599382113093b15e9314804b640d21fa66",
        "q_final_*": "1b8249e151a658c0cce49f5612118e52e583a2d0be7742fe810c88f43b64c5b8",
        "synth stdout": "622d901ba1342312b275e3439d84fb92e1e94baf3daabb8c804bfb5b4e48d044",
        "synth files": "8693634b4838a21da4701a390683ff7cb000451aa169a6f00babf83acd9ca1c2",
        "inject stdout": "097a03e21f5d94a961b0c69b4f9bc1cc37a1bae4622ea8b7023816c436587035",
        "inject files": "0904c5576311f480fd158c932fdba05b737932c823e0bf18320be117028335c6",
    },
    "ten_classes": {
        "report.json": "ae30bbe281aa03423406ad38414e402ece3c61660700718df5a7d8f9fdba3e1c",
        "flips.csv": "cd8e57bb306beb1db1c33bd5533fac53e46ca380282bb31aa0edeed432350d01",
        "train.nld": "6b9abd61999d322d6f4884e441a2f465050f5f9b756b23cda9d4d87c3cdbdcd7",
        "test.nld": "da6e4b2d037813a94b08617b03f3958e55179e7d8152e080bc8bcf30ac22556d",
        "noisy_train.nld": "8136f5b456a91a9081dc6bf6580983d642aef5b1b4253c014d12980016880e9c",
        "q_stage0_*": "2e4b0a08d311c0bd8965d26de8f7af225a728ea19fcc499ceb9543a86a266068",
        "q_final_*": "6197469f302030b90f762030c1a002551a2841823985e42045ff5a3c7aa1dc32",
        "synth stdout": "f809833ee833844cef5bc33bfd8f840e5e329021df65b55201e3568ac3e5e7b3",
        "synth files": "c07ffd9c59ab2b50e3ef85e5e9082fee05f8832f527da49d688a40b857ee5d27",
        "inject stdout": "555013c2af8960e9d3846c70bdb2c4723b1cf715c843093f8e49e75656387ddc",
        "inject files": "d621fa6f56ada84dc274b4e654f27927bd46576d99038380efc22097f5a8f951",
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

    assert digests == FILE_GOLDEN[name], machines()


# The noise modes the cases above leave out: a transition matrix read
# from a CSV the test writes, per-class rates at an explicit noise.seed,
# and one rho per attribute. Each pins the run's noise and metrics files
# and the outputs of CLI ``inject`` on the run's clean train.nld.
TRANSITION_CSV = "0.8,0.1,0.1\n0.2,0.7,0.1\n0.0,0.2,0.8\n"  # columns sum to 1

BLOBS3 = {
    "data.synthetic.kind": "blobs",
    "data.synthetic.classes": "3",
    "data.synthetic.dim": "4",
    "data.synthetic.n_train": "240",
    "data.synthetic.n_test": "120",
    "arch.input_shape": "4",
    "arch.layers": "dense:4:12,relu,dense:12:3",
}

NOISE_CASES = {
    "matrix": {**BLOBS3, "noise.mode": "matrix", "noise.matrix_path": "transition.csv"},
    "per_class": {**BLOBS3, "noise.mode": "per_class", "noise.per_class": "0.1,0.4,0.2",
                  "noise.seed": "9"},
    "multi_rho": {**CASES["multi_attr"], "noise.rho": "0.2,0.4"},
}

NOISE_GOLDEN = {
    "matrix": {
        "flips.csv": "86be0bc196c223afc5454d8bcbf3de8a9eb47d47b53b607d376a25986e99ef0d",
        "noisy_train.nld": "11889795d7014cc8b394f532cb9349676785b4892ad82db7fd592f2a6a0d6c47",
        "metrics.csv": "ad0303f4afc531a29b1e9c248690efacefb5c204df14a3eb4c4be0b92ffd0bf2",
        "inject stdout": "c85e4c2ed6a350946e949af0caf45a3c3469545de97134722f8972f8ef29740a",
        "inject files": "b528578b82fc7bea0c402c736e29edc0e963a9c2fb0aae5c7e779596bc5e34b5",
    },
    "per_class": {
        "flips.csv": "ae5c44b0aced154de1f7e67929e064bcdc864876f5701de9762cf29f242b4f6e",
        "noisy_train.nld": "f6d250e4460b657954df8e40f9bc1a65c024dd830606d50eae6c469733dbaf09",
        "metrics.csv": "fe0d34ae1008052c42e6406f7a87c14d5b511ec0135007913e1428c9c168e060",
        "inject stdout": "f21b9baaad7b73cdb129f906874fcb266482babf3bd1ce4b38e89beae2a1f9f2",
        "inject files": "dbb1af94e10f0bd49351022a2151834b4f290c1c89a54a2e232af3d20e03cce9",
    },
    "multi_rho": {
        "flips.csv": "d8bb5157b85eb9074123b9d5995e28c787d624fb55096056bebae721886e5abb",
        "noisy_train.nld": "130bf81be6c0dcae15d8035efe6c3c02e5825fcc885bee237dcfc1aff7529608",
        "metrics.csv": "67df572b9f045f2028ace33fd659558a6ca7518946aa74100373d18d4ccc0391",
        "inject stdout": "097a03e21f5d94a961b0c69b4f9bc1cc37a1bae4622ea8b7023816c436587035",
        "inject files": "ecab4e31fbab494db6d7046ddb7e8ed11c3ec566f9ff9264307d8b0bf9bd6b5a",
    },
}


def noise_entries(name, out):
    return {"seed": "7", "out": str(out), "data.source": "synthetic",
            **SCHEDULE, **NOISE_CASES[name]}


@pytest.mark.parametrize("name", sorted(NOISE_CASES))
def test_noise_modes_match_golden_hashes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "transition.csv").write_text(TRANSITION_CSV)
    (tmp_path / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in noise_entries(name, "cli").items()))
    run_experiment(build_config(noise_entries(name, "run")))
    digests = {file: sha256((tmp_path / "run" / file).read_bytes())
               for file in ("flips.csv", "noisy_train.nld", "metrics.csv")}
    assert cli_main(["inject", "--config", "run.cfg", "--data", "run/train.nld",
                     "--out", "inject"]) == 0
    digests["inject stdout"] = sha256(capsys.readouterr().out.encode())
    digests["inject files"] = files_digest((tmp_path / "inject").iterdir())

    assert digests == NOISE_GOLDEN[name], machines()


def test_this_machine_reads_or_says_unknown(monkeypatch):
    """Every field is read here, and one that cannot be read is ``unknown``."""
    assert set(this_machine()) == set(RECORDED_ON)
    assert all(this_machine().values())

    def refuse(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    found = this_machine()
    assert found["OpenBLAS"] == found["OpenBLAS core"] == "unknown"
    assert "unknown" in machines()


# Each golden case in a fresh process, into the working directory.
RUN_CASES = """
from noiseattn import build_config, run_experiment
from test_golden import CASES, case_entries
for name in sorted(CASES):
    run_experiment(build_config(case_entries(name, name)))
"""


def run_artifacts(root):
    """The digest of every file under ``root``; report.json is taken
    without its wall time (``report_digest``)."""
    return {str(p.relative_to(root)): report_digest(p) if p.name == "report.json"
            else sha256(p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()}


def test_artifacts_hold_across_processes_and_blas_threads(tmp_path):
    """The contract itself, which holds on any host: two fresh processes,
    one at 1 BLAS thread and one at 2, write the same bytes for every golden
    case. Each writes under its own directory with the same relative output
    paths, so ``config_echo.cfg`` and the paths in report.json match too."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    roots = {n: tmp_path / f"threads{n}" for n in (1, 2)}
    runs = []
    for n, root in roots.items():
        root.mkdir()
        runs.append(subprocess.Popen([sys.executable, "-c", RUN_CASES], cwd=root,
                                     env={**os.environ, "OPENBLAS_NUM_THREADS": str(n),
                                          "PYTHONPATH": path}))
    try:
        assert [run.wait(timeout=600) for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()
    one, two = (run_artifacts(root) for root in roots.values())
    assert {Path(name).parts[0] for name in one} == set(CASES)
    assert one == two
