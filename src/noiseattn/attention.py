"""Noise units and per-sample routing over base-network probabilities.

A noise unit is a column-stochastic class-confusion matrix Q whose entry
(j, i) is the probability that a sample of true class i was observed with
label j. A model keeps an ordered list of units: unit 0 is the identity
(the clean-label channel), and every later unit is learnable. Every
sample routes through whichever unit makes its observed label most
likely, so different units specialize to different noise patterns while
the base network is pushed toward the latent true labels. A model grows
by one unit whenever ``UnitSchedule.plateaued`` finds that its
validation loss has stopped improving, up to ``max_units``.

Inference never applies the units: only the base network is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import Parameter, _picked_nll


def project_column_stochastic(q):
    """Clamp entries to [0, inf) and renormalize each column to sum 1.

    A column that clamps to all zeros is reset to the identity column for
    its index; a column holding a NaN comes out all NaN. Columns already
    on the simplex pass through unchanged.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {q.shape}")
    out = np.maximum(q, 0.0)
    sums = np.add.reduce(out, axis=0)
    if not np.minimum.reduce(sums) > 0.0:  # a zero or NaN column sum
        for i in np.flatnonzero(sums <= 0.0):
            out[:, i] = 0.0
            out[i, i] = 1.0
            sums[i] = 1.0
    out /= sums
    return out


class NoiseUnit:
    """One confusion matrix and its decay; learnable unless it is unit 0 of a model."""

    def __init__(self, n_classes: int, decay: float = 0.0):
        if n_classes < 2:
            raise ConfigError(f"a noise unit needs at least 2 classes, got {n_classes}")
        if not 0 <= decay < np.inf:
            raise ConfigError(f"decay must be finite and non-negative, got {decay}")
        self.q = Parameter(np.eye(n_classes))
        self.decay = float(decay)


class NAModel:
    """Ordered noise units; unit 0 is the identity, never stepped nor projected."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self.units: list[NoiseUnit] = [NoiseUnit(n_classes)]

    @property
    def active_count(self) -> int:
        return len(self.units)

    def add_unit(self, decay: float = 0.0, jitter: float = 0.0, rng=None) -> NoiseUnit:
        """Append a learnable unit initialized at (jittered) identity.

        A strictly identity-valued new unit ties with the identity unit 0
        on every sample and, with ties resolved to the lowest index, would
        never be selected and never receive gradient; the jitter breaks
        those ties while keeping the unit within O(jitter) of the identity.
        """
        unit = NoiseUnit(self.n_classes, decay=decay)
        if jitter:
            if rng is None:
                raise ConfigError("jittered unit initialization needs an rng")
            raw = np.eye(self.n_classes) + jitter * rng.random((self.n_classes, self.n_classes))
            unit.q.data[...] = project_column_stochastic(raw)
        self.units.append(unit)
        return unit

    def learnable_params(self) -> list[Parameter]:
        return [u.q for u in self.units[1:]]

    def project(self):
        """``project_column_stochastic`` of each learnable Q, in place."""
        for unit in self.units[1:]:
            unit.q.data[...] = project_column_stochastic(unit.q.data)

    def unit_matrices(self) -> list[np.ndarray]:
        return [unit.q.data.copy() for unit in self.units]


@dataclass
class UnitSchedule:
    """The noise-attention stage (the config's ``na.*`` keys): epochs
    without and with units, when to grow the model (``plateaued``, up to
    ``max_units``), and how strongly new units are anchored.

    Unit m (1-based, m >= 2) gets decay decay_base * decay_growth**(m-2),
    so later units are pulled toward the identity more strongly. The
    share ``val_fraction`` of the training set, in (0, 1), is held out
    for the validation losses that the plateau rule reads.
    """

    pretrain_epochs: int = 10
    stage_epochs: int = 50
    max_units: int = 1
    patience: int = 4
    improvement_threshold: float = 1e-3
    decay_base: float = 1e-3
    decay_growth: float = 2.0
    init_jitter: float = 1e-3
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.pretrain_epochs < 1:
            raise ConfigError("pretrain_epochs must be a positive integer")
        if self.stage_epochs < 0:
            raise ConfigError("stage_epochs must be >= 0")
        if self.max_units < 1:
            raise ConfigError("max_units must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be a positive integer")
        if self.improvement_threshold <= 0:
            raise ConfigError("improvement_threshold must be positive")
        if not 0 <= self.decay_base < np.inf:
            raise ConfigError("decay_base must be finite and non-negative")
        if not 1 <= self.decay_growth < np.inf:
            raise ConfigError("decay_growth must be finite and >= 1")
        if not 0 <= self.init_jitter < np.inf:
            raise ConfigError("init_jitter must be finite and non-negative")
        if not 0.0 < self.val_fraction < 1.0:  # the plateau rule needs validation losses
            raise ConfigError("val_fraction must lie in (0, 1)")
        try:
            last = self.decay_for(self.max_units)
        except OverflowError:
            last = np.inf
        if last == np.inf:
            raise ConfigError(f"max_units = {self.max_units} overflows the last unit's decay")

    def decay_for(self, unit_index: int) -> float:
        if unit_index < 2:
            return 0.0
        return self.decay_base * self.decay_growth ** (unit_index - 2)

    def plateaued(self, history) -> bool:
        """Whether the validation losses gathered since the model last
        changed have plateaued: the best of the last ``patience`` epochs
        improves on the best of the ``patience`` epochs before by less than
        ``improvement_threshold``. Never before ``2 * patience`` losses."""
        e = self.patience
        return len(history) >= 2 * e and (
            min(history[-2 * e:-e]) - min(history[-e:]) < self.improvement_threshold)


# ---------------------------------------------------------------------------
# Forward / selection / loss


def unit_outputs(probs, model: NAModel):
    """Stack every unit's routed batch: shape (M, B, C)."""
    stacked = np.empty((len(model.units),) + probs.shape)
    for m, unit in enumerate(model.units):
        np.matmul(probs, unit.q.data.T, out=stacked[m])
    return stacked


def attention_outputs(probs, labels, model: NAModel):
    """Route each sample through its maximum-confidence unit.

    Returns (selected unit indices, routed probability rows). Argmax ties
    resolve to the lowest unit index. Labels must lie in [0, n_classes):
    ``Trainer._columns`` checks them where they enter.
    """
    rows = np.arange(probs.shape[0])
    stacked = unit_outputs(probs, model)
    sel = stacked[:, rows, labels].argmax(axis=0)
    return sel, stacked[sel, rows, :]


def na_loss_terms(probs, labels, model: NAModel):
    """Selection, routed rows, picked confidences, and the scalar loss:
    the mean -log of each sample's selected-unit confidence at its label.
    As for ``attention_outputs``, ``Trainer._columns`` has checked the labels.
    """
    sel, out = attention_outputs(probs, labels, model)
    picked, loss = _picked_nll(out, labels)
    return sel, out, picked, loss


def routed_backward(probs, sel, out_grad, model: NAModel):
    """Backpropagate a routed-output gradient through the selected units.

    Returns the gradient wrt the base probabilities. Each unit m > 0
    accumulates its gradient contribution, then the term decay * (Q - I)
    anchored on unit 0's identity; unit 0 receives neither.
    """
    gp = np.empty_like(probs)
    counts = np.bincount(sel, minlength=len(model.units))
    for m, unit in enumerate(model.units):
        if counts[m]:
            mask = sel == m
            sub = out_grad[mask]
            gp[mask] = sub @ unit.q.data
            if m > 0:
                unit.q.grad += sub.T @ probs[mask]
        if unit.decay:  # 0.0 for unit 0
            unit.q.grad += unit.decay * (unit.q.data - model.units[0].q.data)
    return gp

