"""Epoch-level training loops shared by the pipeline stages.

A trainer owns a network whose ``forward`` returns one probability batch
per attribute, one noise model per attribute, and their optimizers. A
single-label network is the one-attribute case: ``OneHead`` gives it that
interface. Per-attribute losses are summed and every head's gradient
reaches the shared layers. The plain path trains each head on its own
softmax NLL; the attention path routes every sample through its
maximum-confidence unit. With a single (identity) unit the two paths
perform bit-identical arithmetic, so attention training degrades exactly
to plain training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .attention import NAModel, UnitSchedule, na_loss, na_loss_terms, routed_backward
from .nn import (SGD, Network, _nll_grad, _picked_nll, check_labels, entropy_tuple,
                 label_columns, nll_loss, softmax, softmax_backward)
from .recursion import soft_attention_outputs, soft_nll_loss, soft_out_grad

# rng stream tags, combined with the run seed
STREAM_SPLIT = 7
STREAM_SHUFFLE = 11
STREAM_JITTER = 13


@dataclass
class TrainSettings:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 64

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def split_train_val(n: int, val_fraction: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic index split; validation indices never see gradients."""
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    rng = np.random.default_rng(entropy_tuple(seed, STREAM_SPLIT))
    order = rng.permutation(n)
    n_val = int(round(val_fraction * n))
    if val_fraction > 0 and n_val == 0:
        n_val = 1
    if n_val >= n:
        raise ConfigError(f"val_fraction {val_fraction} leaves no training data (n={n})")
    val = np.sort(order[:n_val])
    train = np.sort(order[n_val:])
    return train, val


class OneHead:
    """A single-label network seen as one unnamed head with no attribute spec."""

    names = ("",)
    attributes = None

    def __init__(self, base: Network):
        self.base = base

    @property
    def class_counts(self) -> list[int]:
        return [self.base.out_dim]

    def parameters(self):
        return self.base.parameters()

    def forward(self, batch):
        return [softmax(self.base.forward(batch))]

    def backward(self, dlogits_list):
        return self.base.backward(dlogits_list[0])


def as_heads(net):
    """``net`` as attribute heads: a plain ``Network`` becomes ``OneHead(net)``."""
    return OneHead(net) if isinstance(net, Network) else net


def _loss_total(losses) -> float:
    """Sequential sum of per-attribute losses. A single loss is returned as
    it is: ``0.0 + -0.0`` is ``+0.0``, so summing would change its sign."""
    if len(losses) == 1:
        return losses[0]
    total = 0.0
    for loss in losses:
        total += loss
    return total


# The heads take labels that ``Trainer._columns`` has already checked.


def _plain_head(probs, labels, model):
    picked, loss = _picked_nll(probs, labels)
    return loss, _nll_grad(probs, labels, picked)


def _na_head(probs, labels, model):
    sel, out, picked, loss = na_loss_terms(probs, labels, model)
    return loss, routed_backward(probs, sel, _nll_grad(out, labels, picked), model)


def _soft_head(probs, supervisions, model):
    sel, out = soft_attention_outputs(probs, supervisions, model)
    return (soft_nll_loss(out, supervisions),
            routed_backward(probs, sel, soft_out_grad(out, supervisions), model))


class Trainer:
    """Owns one network (plus optional noise units) and its optimizers.

    ``net`` is a plain ``Network`` (wrapped in ``OneHead``) or a network
    whose ``forward`` returns per-attribute probabilities and whose
    ``class_counts`` lists each head's classes, such as
    ``MultiHeadNetwork``; ``na_models`` holds one noise model per
    attribute. Labels are (N,) for one attribute or (N, K) for K; each
    epoch checks them against the heads once, before the first step.
    Mini-batch order comes from a dedicated shuffle stream seeded by the
    run seed, so two trainers built with the same seed walk the data in
    the same order regardless of which loss path they use.
    """

    def __init__(self, net, settings: TrainSettings, na_models=(), seed=0):
        self.net = as_heads(net)
        self.na_models: list[NAModel] = list(na_models)
        if self.na_models and [m.n_classes for m in self.na_models] != self.net.class_counts:
            raise ConfigError(f"noise models for {[m.n_classes for m in self.na_models]} "
                              f"classes do not match heads of {self.net.class_counts}")
        self.settings = settings
        self.net_opt = SGD(self.net.parameters(), settings.lr, settings.momentum,
                           settings.weight_decay)
        self.unit_opt = SGD([], settings.lr, settings.momentum, 0.0)
        for model in self.na_models:
            for p in model.learnable_params():
                self.unit_opt.add_param(p)
        self._shuffle_rng = np.random.default_rng(entropy_tuple(seed, STREAM_SHUFFLE))
        self._jitter_rng = np.random.default_rng(entropy_tuple(seed, STREAM_JITTER))

    def add_unit(self, schedule: UnitSchedule, attr_index: int = 0):
        model = self.na_models[attr_index]
        unit = model.add_unit(decay=schedule.decay_for(model.active_count + 1),
                              jitter=schedule.init_jitter, rng=self._jitter_rng)
        self.unit_opt.add_param(unit.q)
        return unit

    def _check_units(self):
        if not self.na_models:
            raise ConfigError("trainer has no attention model")

    def _columns(self, labels) -> list[np.ndarray]:
        """One label column per head, each checked against its class count."""
        columns = label_columns(labels)
        counts = self.net.class_counts
        if len(columns) != len(counts):
            raise DataError(f"labels carry {len(columns)} attribute column(s), "
                            f"the network has {len(counts)} head(s)")
        return [check_labels(y, c) for y, c in zip(columns, counts)]

    # -- one optimization step -------------------------------------------

    def _step(self, head, bx, targets, use_units: bool) -> float:
        """``head(probs, targets[k], model)`` gives attribute k's loss and
        its gradient wrt the probabilities."""
        losses, dlogits = [], []
        for k, probs in enumerate(self.net.forward(bx)):
            loss, gprobs = head(probs, targets[k], self.na_models[k] if use_units else None)
            losses.append(loss)
            dlogits.append(softmax_backward(probs, gprobs))
        total = _loss_total(losses)
        if not math.isfinite(total):
            raise DivergenceError(f"non-finite loss {total!r}")  # _epoch adds the batch
        self.net.backward(dlogits)
        self.net_opt.step()
        if use_units:
            self.unit_opt.step()
            for model in self.na_models:
                model.project()
        return total

    # -- epochs ------------------------------------------------------------

    def _batches(self, n: int):
        order = self._shuffle_rng.permutation(n)
        bs = self.settings.batch_size
        for start in range(0, n, bs):
            yield order[start:start + bs]

    def _epoch(self, head, features, targets, use_units: bool) -> float:
        """One shuffled pass; returns the sample-weighted mean batch loss."""
        n = features.shape[0]
        total = 0.0
        for i, idx in enumerate(self._batches(n), start=1):
            batch_targets = [t[idx] for t in targets]
            try:
                loss = self._step(head, features[idx], batch_targets, use_units)
            except DivergenceError as exc:
                count = -(-n // self.settings.batch_size)
                raise DivergenceError(f"{exc} at batch {i} of {count}") from None
            total += loss * idx.size
        return total / n

    def train_epoch(self, features, labels, use_na: bool = False) -> float:
        """One shuffled pass on the given labels, through the units with ``use_na``."""
        if use_na:
            self._check_units()
        return self._epoch(_na_head if use_na else _plain_head, features,
                           self._columns(labels), use_na)

    def train_epoch_soft(self, features, supervisions) -> float:
        """One shuffled pass against per-sample soft supervisions, one
        (N, C_k) array per attribute.

        Takes no labels: all supervision signal must already be baked into
        the supervision rows.
        """
        self._check_units()
        return self._epoch(_soft_head, features, supervisions, True)

    # -- evaluation-only helpers -------------------------------------------

    def val_loss(self, features, labels, use_na: bool = False) -> list[float]:
        """Per-attribute losses: plain NLL, or the routed NLL with ``use_na``."""
        columns = self._columns(labels)
        probs_list = self.net.forward(features)
        if use_na:
            return [na_loss(probs, y, model)
                    for probs, y, model in zip(probs_list, columns, self.na_models)]
        return [nll_loss(probs, y) for probs, y in zip(probs_list, columns)]
