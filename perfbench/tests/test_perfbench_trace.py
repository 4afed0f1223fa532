"""Traced-run sanity checks at a tiny size of every workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import bench  # noqa: E402
from perfbench.tracer import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

na = bench.load_pipeline(ROOT)
SINGLE_LABEL = ("mlp_small_batch", "conv_patches")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tiny traced repetition per workload."""
    out = {}
    for name, workload in WORKLOADS.items():
        run_dir = tmp_path_factory.mktemp(name) / "run"
        # Tiny sizes exercise every span but train too briefly for the quality ceiling.
        workload = dataclasses.replace(workload, error_ceiling=1.0)
        out[name] = bench.traced_rep(na, workload, 3, run_dir, tiny=True)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted(traced, name):
    rep = traced[name]
    metrics = rep.layers
    assert rep.errors == []
    assert set(PER_LAYER) - set(metrics) == {"trace_overhead_frac"}
    assert metrics["training.epochs"] > 0 and metrics["nn.sgd.steps"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stage_spans_cover_the_run(traced, name):
    assert 0.9 <= traced[name].coverage <= 1.0


@pytest.mark.parametrize("name", SINGLE_LABEL)
def test_multihead_idle_on_single_label(traced, name):
    metrics = traced[name].layers
    assert [v for k, v in metrics.items() if k.startswith("multihead.")] == [0.0] * 3


def test_multihead_busy_on_multi_attribute(traced):
    metrics = traced["multi_attr_eval"].layers
    assert all(v > 0 for k, v in metrics.items() if k.startswith("multihead."))


def test_no_conv_on_mlp(traced):
    metrics = traced["mlp_small_batch"].layers
    assert metrics["nn.conv2d.fwd_s"] == metrics["nn.conv2d.bwd_s"] == 0.0
    assert traced["conv_patches"].layers["nn.conv2d.fwd_s"] > 0


def test_tracer_restores_the_program(traced):
    assert not hasattr(na.nn.Network.forward, "__wrapped__")
    assert na.training.na_loss_terms is na.attention.na_loss_terms
    assert not hasattr(na.harness.run_recursion, "__wrapped__")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
