"""Spans around every public function and method of ``noiseattn``.

``Tracer.installed()`` patches, from outside the program, each public
function and each public method of every class defined in the traced
modules (layer classes such as ``_DenseLayer`` included). A function is
also patched in every ``noiseattn`` namespace that binds it by name, so a
call through ``from .attention import routed_backward`` is seen too.
Leaving the ``with`` block restores every original.

Spans are kept in memory as ``[name, start, end, parent, info]``; ``info``
holds what a metric needs from the call's arguments (``use_na``, batch
rows, epoch steps, a written path). ``layer_metrics`` turns the spans
of one repetition into the per-layer metrics:

* a ``*_s`` metric is the summed duration of its outermost spans (a span
  nested inside another span of the same metric is not counted twice);
* ``training.step_self_s`` is self time: the duration of the epoch spans
  minus the time covered by their child spans, i.e. per-step overhead;
* the ``harness`` stage metrics are attributed from outside, over the
  direct children of the ``run_experiment`` span: ``train_epoch`` and
  ``val_loss`` with ``use_na=False`` are pretrain, with ``use_na=True`` na,
  the ``run_recursion*`` span is recursion, and ``evaluate*`` is eval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager
from enum import Enum
from pathlib import Path

PACKAGE = "noiseattn"
TRACED_MODULES = ("nn", "attention", "recursion", "training", "multihead",
                  "data", "config", "harness", "cli")

LAYER_CLASSES = {"_DenseLayer": "dense", "_ConvLayer": "conv2d",
                 "_MaxPoolLayer": "maxpool", "_ReLULayer": "relu"}

SPAN_METRICS = {
    "nn.softmax": "nn.softmax_s",
    "nn.softmax_backward": "nn.softmax_s",
    "nn.nll_loss": "nn.loss_s",
    "nn.nll_loss_grad": "nn.loss_s",
    "nn.SGD.step": "nn.sgd.step_s",
    "attention.attention_outputs": "attention.route_s",
    "attention.routed_backward": "attention.routed_backward_s",
    "attention.NAModel.project": "attention.project_s",
    "recursion.snapshot_probs": "recursion.snapshot_probs_s",
    "recursion.snapshot_probs_multi": "recursion.snapshot_probs_s",
    "recursion.combine_supervision": "recursion.combine_s",
    "recursion.combine_supervisions": "recursion.combine_s",
    "recursion.soft_attention_outputs": "recursion.soft_route_s",
    "multihead.MultiHeadNetwork.forward": "multihead.forward_s",
    "multihead.MultiHeadNetwork.backward": "multihead.backward_s",
    "multihead.evaluate_all_metric": "multihead.evaluate_s",
    "training.Trainer.train_epoch": "training.train_epoch_s",
    "multihead.MultiTrainer.train_epoch": "training.train_epoch_s",
    "training.Trainer.train_epoch_soft": "training.train_epoch_soft_s",
    "multihead.MultiTrainer.train_epoch_soft": "training.train_epoch_soft_s",
    "training.Trainer.val_loss": "training.val_loss_s",
    "multihead.MultiTrainer.val_loss": "training.val_loss_s",
    "multihead.MultiTrainer.val_loss_per_attr": "training.val_loss_s",
    "harness.save_snapshot": "harness.save_snapshot_s",
    "harness.load_snapshot": "harness.load_snapshot_s",
    "harness.export_q": "harness.export_q_s",
    "harness.MetricsLog.write": "harness.metrics_write_s",
    "harness.resolve_data": "data.resolve_s",
    "data.generate_synthetic": "data.generate_s",
    "data.generate_synthetic_multi": "data.generate_s",
    "data.inject_noise": "data.inject_s",
    "data.inject_noise_multi": "data.inject_s",
    "data.save_dataset": "data.save_dataset_s",
    "data.load_dataset": "data.load_dataset_s",
    "config.build_config": "config.build_s",
}
for _cls, _kind in LAYER_CLASSES.items():
    SPAN_METRICS[f"nn.{_cls}.forward"] = f"nn.{_kind}.fwd_s"
    SPAN_METRICS[f"nn.{_cls}.backward"] = f"nn.{_kind}.bwd_s"

EPOCH_SPANS = {name for name, metric in SPAN_METRICS.items()
               if metric in ("training.train_epoch_s", "training.train_epoch_soft_s")}

# Direct children of the run_experiment span, by pipeline stage. Spans in
# BY_USE_NA are pretrain with use_na=False and na with use_na=True; all of
# these plus COVERAGE_ONLY count towards the stage coverage of the run.
BY_USE_NA = {"training.Trainer.train_epoch", "training.Trainer.val_loss",
             "multihead.MultiTrainer.train_epoch", "multihead.MultiTrainer.val_loss",
             "multihead.MultiTrainer.val_loss_per_attr"}
STAGE_OF = {"recursion.run_recursion": "harness.recursion_s",
            "recursion.run_recursion_multi": "harness.recursion_s",
            "harness.evaluate": "harness.eval_s",
            "multihead.evaluate_all_metric": "harness.eval_s"}
COVERAGE_ONLY = {"harness.resolve_data", "harness.save_snapshot", "harness.export_q",
                 "harness.MetricsLog.write"}

TIME_METRICS = sorted(set(SPAN_METRICS.values()) | {
    "harness.pretrain_s", "harness.na_s", "harness.recursion_s", "harness.eval_s",
    "training.step_self_s"})
COUNT_METRICS = ("nn.sgd.steps", "nn.forward.calls", "nn.forward.rows",
                 "attention.project.calls", "training.epochs", "training.steps",
                 "data.bytes_written")
PER_LAYER = {  # name -> unit, as printed by run.py --trace 1
    **{name: "s" for name in TIME_METRICS},
    **{name: ("bytes" if name == "data.bytes_written" else "count") for name in COUNT_METRICS},
    "attention.units_active": "count",
    "recursion.rounds": "count",
    "trace_overhead_frac": "fraction",
}


def _use_na(fn):
    """Reads a call's ``use_na`` argument, or None if ``fn`` has none."""
    params = list(inspect.signature(fn).parameters)
    if "use_na" not in params:
        return None
    pos = params.index("use_na")
    return lambda a, kw: bool(kw.get("use_na", a[pos] if len(a) > pos else False))


def _probe(name, fn):
    """A function of (args, kwargs) giving the call's ``info``, or None."""
    use_na = _use_na(fn)
    if name in EPOCH_SPANS:  # (self, features, ...): (steps of this epoch, use_na)
        return lambda a, kw: (math.ceil(len(a[1]) / a[0].settings.batch_size),
                              use_na(a, kw) if use_na else None)
    if use_na:
        return use_na
    if name == "nn.Network.forward":
        return lambda a, kw: len(a[1])
    if name == "data.save_dataset":
        return lambda a, kw: str(a[1])
    return None


def _targets():
    """(owner, attribute, span name) for every public callable to trace."""
    for short in TRACED_MODULES:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield mod, attr, f"{short}.{attr}"
            elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        yield obj, meth, f"{short}.{obj.__name__}.{meth}"


class Tracer:
    """Records spans of every traced call made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = _probe(name, fn)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      probe(args, kwargs) if probe else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)  # sets __wrapped__

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        patched = []  # (owner, attribute, original)
        try:
            for owner, attr, name in list(_targets()):
                original = vars(owner)[attr]
                traced = self._wrap(name, original)
                if inspect.isclass(owner):
                    patched.append((owner, attr, original))
                    setattr(owner, attr, traced)
                    continue
                for mod in modules:  # every namespace binding the function by name
                    if vars(mod).get(attr) is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def layer_metrics(spans) -> tuple[dict, float]:
    """Per-layer metrics of one repetition, plus the share of the
    ``run_experiment`` span covered by its stage spans."""
    metrics = {m: 0.0 for m in TIME_METRICS}
    metrics.update({m: 0 for m in COUNT_METRICS})
    n = len(spans)
    child_time = [0.0] * n
    outer = [frozenset()] * n  # metrics of each span's ancestors
    written = set()
    roots = {i for i, s in enumerate(spans) if s[0] == "harness.run_experiment"}
    covered = 0.0
    for i, (name, start, end, parent, info) in enumerate(spans):
        duration = end - start
        metric = SPAN_METRICS.get(name)
        if parent >= 0:
            child_time[parent] += duration
            pmetric = SPAN_METRICS.get(spans[parent][0])
            outer[i] = outer[parent] | {pmetric} if pmetric else outer[parent]
        if metric and metric not in outer[i]:
            metrics[metric] += duration
        if parent in roots:
            if name in BY_USE_NA:
                use_na = info[1] if isinstance(info, tuple) else info
                metrics["harness.na_s" if use_na else "harness.pretrain_s"] += duration
            elif name in STAGE_OF:
                metrics[STAGE_OF[name]] += duration
            if name in BY_USE_NA or name in STAGE_OF or name in COVERAGE_ONLY:
                covered += duration
        if name == "nn.SGD.step":
            metrics["nn.sgd.steps"] += 1
        elif name == "nn.Network.forward":
            metrics["nn.forward.calls"] += 1
            metrics["nn.forward.rows"] += info
        elif name == "attention.NAModel.project":
            metrics["attention.project.calls"] += 1
        elif name in EPOCH_SPANS:
            metrics["training.epochs"] += 1
            metrics["training.steps"] += info[0]
        elif name == "data.save_dataset":
            written.add(info)
    for i, (name, start, end, _, _) in enumerate(spans):
        if name in EPOCH_SPANS:
            metrics["training.step_self_s"] += (end - start) - child_time[i]
    metrics["data.bytes_written"] = sum(Path(p).stat().st_size for p in written
                                        if Path(p).exists())
    run_time = sum(spans[r][2] - spans[r][1] for r in roots)
    return metrics, (covered / run_time if run_time > 0 else 0.0)
