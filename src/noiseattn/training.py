"""Epoch-level training loops shared by the pipeline stages.

A trainer owns a heads view, a network whose ``forward`` returns one
probability batch per attribute, one noise model per attribute, and their
optimizers. A single-label ``Network`` is the one-attribute case, seen
through ``OneHead``. Per-attribute losses are summed and every head's
gradient reaches the shared layers. There is one objective: the NLL of
each label after routing its sample through the unit of the attribute's
model that makes the label most likely. Pretraining is this objective while
each model holds only unit 0, the identity: ``probs @ I`` is exact, so the
routed loss and gradient are then the plain softmax NLL's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .attention import (NAModel, UnitSchedule, na_loss_terms, project_column_stochastic,
                        routed_backward)
from .nn import (SGD, Network, _nll_grad, check_labels, entropy_tuple, label_columns,
                 softmax, softmax_backward)
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
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def split_train_val(n: int, val_fraction: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic index split; validation indices never see gradients.
    ``val_fraction`` lies in (0, 1), as ``UnitSchedule`` checks, and the
    validation part holds at least one index."""
    rng = np.random.default_rng(entropy_tuple(seed, STREAM_SPLIT))
    order = rng.permutation(n)
    n_val = max(int(round(val_fraction * n)), 1)
    if n_val >= n:
        raise ConfigError(f"val_fraction {val_fraction} leaves no training data (n={n})")
    val = np.sort(order[:n_val])
    train = np.sort(order[n_val:])
    return train, val


class OneHead:
    """A single-label network, its ``trunk``, seen as one unnamed head."""

    names = ("",)
    attributes = None

    def __init__(self, trunk: Network):
        self.trunk = trunk

    @property
    def class_counts(self) -> list[int]:
        return [self.trunk.out_dim]

    def parameters(self):
        return self.trunk.parameters()

    def named_parameters(self):
        return self.trunk.named_parameters()

    def forward(self, batch, cache=True):
        return [softmax(self.trunk.forward(batch, cache))]

    def backward(self, dlogits_list):
        """Parameter gradients only: the input gradient is not computed."""
        self.trunk.backward(dlogits_list[0], input_grad=False)


def _loss_total(losses) -> float:
    """Sequential sum of per-attribute losses. A single loss is returned as
    it is: ``0.0 + -0.0`` is ``+0.0``, so summing would change its sign."""
    if len(losses) == 1:
        return losses[0]
    total = 0.0
    for loss in losses:
        total += loss
    return total


def _param_chain(view, models):
    """The parameter order: the view's ``named_parameters()``, then each
    model's units, attribute by attribute (``unit 1 q``, or ``a unit 1 q``)."""
    yield from view.named_parameters()
    for attr, model in zip(view.names, models):
        of = f"{attr} " if attr else ""
        for m, unit in enumerate(model.units):
            yield f"{of}unit {m} q", unit.q


def _non_finite_output(view, batch) -> str:
    """Where a forward-only pass over ``batch`` first holds a NaN or an inf:
    the input, or else the first such layer output (``first_non_finite``),
    the trunk's layers before each head's; empty if there is none. The
    pass's own overflow warnings are silenced."""
    if not np.isfinite(batch).all():
        return "; the input holds a non-finite value"
    with np.errstate(all="ignore"):
        where, feats = view.trunk.first_non_finite(batch)
        for name, head in zip(view.names, getattr(view, "heads", ())):
            if where is None and (found := head.first_non_finite(feats)[0]):
                where = f"head {name} {found}"
    return "" if where is None else f"; first non-finite output: {where}"


# The heads take labels that ``Trainer._columns`` has checked; their routing checks none.


def _na_head(probs, labels, model):
    sel, out, picked, loss = na_loss_terms(probs, labels, model)
    return loss, routed_backward(probs, sel, _nll_grad(out, labels, picked), model)


def _soft_head(probs, supervisions, model):
    sel, out = soft_attention_outputs(probs, supervisions, model)
    return (soft_nll_loss(out, supervisions),
            routed_backward(probs, sel, soft_out_grad(out, supervisions), model))


class Trainer:
    """Owns one network, one noise model per attribute, and their optimizers.

    ``net`` is a heads view, a ``OneHead`` or a ``MultiHeadNetwork``, whose
    ``forward`` returns one probability batch per head. ``na_models``
    default to one identity-only ``NAModel`` per attribute, so epochs before
    the first ``add_unit`` are pretraining. ``unit_opts[k]`` steps model k's
    units after unit 0, in ``_param_chain`` order. Labels are (N,) for one
    attribute or (N, K) for K; each epoch checks them against the heads
    once, before the first step. Mini-batch order comes from a dedicated
    shuffle stream seeded by the run seed, so two trainers built with the
    same seed walk the data in the same order.
    """

    def __init__(self, net, settings: TrainSettings, na_models=(), seed=0):
        self.net = net
        self.na_models = list(na_models) or [NAModel(c) for c in self.net.class_counts]
        if [m.n_classes for m in self.na_models] != self.net.class_counts:
            raise ConfigError(f"noise models for {[m.n_classes for m in self.na_models]} "
                              f"classes do not match heads of {self.net.class_counts}")
        self.settings = settings
        self.net_opt = SGD(self.net.parameters(), settings.lr, settings.momentum,
                           settings.weight_decay)
        self.unit_opts = [SGD(model.learnable_params(), settings.lr, settings.momentum, 0.0)
                          for model in self.na_models]
        self._shuffle_rng = np.random.default_rng(entropy_tuple(seed, STREAM_SHUFFLE))
        self._jitter_rng = np.random.default_rng(entropy_tuple(seed, STREAM_JITTER))

    def add_unit(self, schedule: UnitSchedule, attr_index: int = 0):
        model = self.na_models[attr_index]
        unit = model.add_unit(decay=schedule.decay_for(model.active_count + 1),
                              jitter=schedule.init_jitter, rng=self._jitter_rng)
        self.unit_opts[attr_index].add_param(unit.q)
        return unit

    def _columns(self, labels) -> list[np.ndarray]:
        """One label column per head, each checked against its class count."""
        columns = label_columns(labels)
        counts = self.net.class_counts
        if len(columns) != len(counts):
            raise DataError(f"labels carry {len(columns)} attribute column(s), "
                            f"the network has {len(counts)} head(s)")
        return [check_labels(y, c) for y, c in zip(columns, counts)]

    # -- one optimization step -------------------------------------------

    def _step(self, head, bx, targets) -> float:
        """``head(probs, targets[k], model)`` gives attribute k's loss and
        its gradient wrt the probabilities."""
        losses, dlogits = [], []
        for k, probs in enumerate(self.net.forward(bx)):
            loss, gprobs = head(probs, targets[k], self.na_models[k])
            losses.append(loss)
            dlogits.append(softmax_backward(probs, gprobs))
        total = _loss_total(losses)
        if not math.isfinite(total):
            raise DivergenceError(f"non-finite loss {total!r}")  # _epoch adds the batch
        self.net.backward(dlogits)
        self.net_opt.step()
        for opt in self.unit_opts:
            opt.step()
        self._project_units()
        return total

    def _project_units(self):
        """Each model's learnable Qs, which ``unit_opts[k]`` holds back to
        back in its arena, projected in place as one ``(U, C, C)`` stack."""
        for opt, model in zip(self.unit_opts, self.na_models):
            if opt.params:
                qs = opt._data.reshape(-1, model.n_classes, model.n_classes)
                qs[...] = project_column_stochastic(qs)

    # -- epochs ------------------------------------------------------------

    def _batches(self, n: int):
        order = self._shuffle_rng.permutation(n)
        bs = self.settings.batch_size
        for start in range(0, n, bs):
            yield order[start:start + bs]

    def _non_finite_parameter(self, batch) -> str:
        """Names the first parameter of ``_param_chain`` holding a NaN or an
        inf; if every one is finite, then where a forward pass over the
        failing ``batch`` first holds one (``_non_finite_output``)."""
        for name, p in _param_chain(self.net, self.na_models):
            if not np.isfinite(p.data).all():
                return f"first non-finite parameter: {name}"
        return "every parameter is finite" + _non_finite_output(self.net, batch)

    def _epoch(self, head, features, targets) -> float:
        """One shuffled pass; returns the sample-weighted mean batch loss."""
        n = features.shape[0]
        total = 0.0
        for i, idx in enumerate(self._batches(n), start=1):
            batch_targets = [t[idx] for t in targets]
            try:
                loss = self._step(head, features[idx], batch_targets)
            except DivergenceError as exc:
                count = -(-n // self.settings.batch_size)
                raise DivergenceError(f"{exc} at batch {i} of {count}; "
                                      f"{self._non_finite_parameter(features[idx])}") from None
            total += loss * idx.size
        return total / n

    def train_epoch(self, features, labels) -> float:
        """One shuffled pass on the given labels, routed through the units."""
        return self._epoch(_na_head, features, self._columns(labels))

    def train_epoch_soft(self, features, supervisions) -> float:
        """One shuffled pass against per-sample soft supervisions, one
        (N, C_k) array per attribute.

        Takes no labels: all supervision signal must already be baked into
        the supervision rows. Their shapes are checked here, once.
        """
        supervisions = [np.asarray(s, dtype=np.float64) for s in supervisions]
        shapes = [(features.shape[0], c) for c in self.net.class_counts]
        if [s.shape for s in supervisions] != shapes:
            raise DataError(f"supervisions must be one array per head, shaped {shapes}")
        return self._epoch(_soft_head, features, supervisions)

    # -- evaluation-only helpers -------------------------------------------

    def val_loss(self, features, labels) -> list[float]:
        """Per-attribute routed NLL, the loss of ``na_loss_terms``, from one
        forward-only pass over the whole set. A non-finite total is a
        ``DivergenceError`` that names the first non-finite parameter."""
        columns = self._columns(labels)
        losses = [na_loss_terms(probs, y, model)[3] for probs, y, model
                  in zip(self.net.forward(features, cache=False), columns, self.na_models)]
        total = _loss_total(losses)
        if not math.isfinite(total):
            raise DivergenceError(f"non-finite validation loss {total!r}; "
                                  f"{self._non_finite_parameter(features)}")
        return losses
