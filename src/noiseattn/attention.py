"""Noise units and per-sample routing over base-network probabilities.

A noise unit is a column-stochastic class-confusion matrix Q whose entry
(j, i) is the probability that a sample of true class i was observed with
label j. A model keeps an ordered list of units; the first is frozen at
the identity (the clean-label channel) and the rest are learnable. Every
sample routes through whichever unit makes its observed label most
likely, so different units specialize to different noise patterns while
the base network is pushed toward the latent true labels.

Inference never applies the units: only the base network is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .nn import Parameter, _picked_nll, check_labels


def project_column_stochastic(q):
    """Clamp entries to [0, inf) and renormalize each column to sum 1.

    A column that clamps to all zeros is reset to the identity column for
    its index. Columns already on the simplex pass through unchanged.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {q.shape}")
    out = np.maximum(q, 0.0)
    sums = out.sum(axis=0)
    for i in np.flatnonzero(sums <= 0.0):
        out[:, i] = 0.0
        out[i, i] = 1.0
        sums[i] = 1.0
    return out / sums


class NoiseUnit:
    """One confusion matrix with a frozen flag and a decay coefficient."""

    def __init__(self, n_classes: int, frozen: bool = False, decay: float = 0.0):
        if n_classes < 2:
            raise ConfigError(f"a noise unit needs at least 2 classes, got {n_classes}")
        if decay < 0:
            raise ConfigError(f"decay must be non-negative, got {decay}")
        self.q = Parameter(np.eye(n_classes))
        self.frozen = frozen
        self.decay = float(decay)

    @property
    def n_classes(self) -> int:
        return self.q.data.shape[0]


class NAModel:
    """Ordered noise units; the first is always the frozen identity."""

    def __init__(self, n_classes: int):
        if n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {n_classes}")
        self.n_classes = n_classes
        self.units: list[NoiseUnit] = [NoiseUnit(n_classes, frozen=True)]
        self._eye = np.eye(n_classes)  # the decay anchor of routed_backward
        self._eye.flags.writeable = False

    @property
    def active_count(self) -> int:
        return len(self.units)

    def add_unit(self, decay: float = 0.0, jitter: float = 0.0, rng=None) -> NoiseUnit:
        """Append a learnable unit initialized at (jittered) identity.

        A strictly identity-valued new unit ties with the frozen identity
        on every sample and, with ties resolved to the lowest index, would
        never be selected and never receive gradient; the jitter breaks
        those ties while keeping the unit within O(jitter) of the identity.
        """
        unit = NoiseUnit(self.n_classes, frozen=False, decay=decay)
        if jitter:
            if rng is None:
                raise ConfigError("jittered unit initialization needs an rng")
            raw = np.eye(self.n_classes) + jitter * rng.random((self.n_classes, self.n_classes))
            unit.q.data[...] = project_column_stochastic(raw)
        self.units.append(unit)
        return unit

    def learnable_params(self) -> list[Parameter]:
        return [u.q for u in self.units if not u.frozen]

    def project(self):
        """Restore column-stochasticity of every learnable unit in place.

        Clamps and normalizes each Q where it lies; a column that clamps
        to all zeros, or whose sum is not positive (NaN), goes through
        ``project_column_stochastic`` instead, which gives the same bits.
        """
        for unit in self.units:
            if unit.frozen:
                continue
            q = unit.q.data
            np.maximum(q, 0.0, out=q)
            sums = np.add.reduce(q, axis=0)
            if np.minimum.reduce(sums) > 0.0:  # False for a NaN sum
                q /= sums
            else:
                q[...] = project_column_stochastic(q)

    def unit_matrices(self) -> list[np.ndarray]:
        return [unit.q.data.copy() for unit in self.units]


@dataclass
class UnitSchedule:
    """The noise-attention stage (the config's ``na.*`` keys): epochs
    without and with units, when to grow the model, and how strongly new
    units are anchored.

    Unit m (1-based, m >= 2) gets decay decay_base * decay_growth**(m-2),
    so later units are pulled toward the identity more strongly.
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
        if self.decay_base < 0:
            raise ConfigError("decay_base must be non-negative")
        if self.decay_growth < 1:
            raise ConfigError("decay_growth must be >= 1")
        if self.init_jitter < 0:
            raise ConfigError("init_jitter must be non-negative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in [0, 1)")

    def decay_for(self, unit_index: int) -> float:
        if unit_index < 2:
            return 0.0
        return self.decay_base * self.decay_growth ** (unit_index - 2)


class Decision(Enum):
    CONTINUE = "continue"
    ADD_UNIT = "add_unit"
    STOP = "stop"


def schedule_step(history, schedule: UnitSchedule, model: NAModel) -> Decision:
    """Plateau rule over validation losses gathered since the last change.

    Compares the best loss of the last `patience` epochs against the best
    of the `patience` epochs before; improvement below the threshold adds
    a unit, or stops once the model is at its unit cap.
    """
    e = schedule.patience
    if len(history) < 2 * e:
        return Decision.CONTINUE
    recent = min(history[-e:])
    previous = min(history[-2 * e:-e])
    if previous - recent < schedule.improvement_threshold:
        if model.active_count < schedule.max_units:
            return Decision.ADD_UNIT
        return Decision.STOP
    return Decision.CONTINUE


# ---------------------------------------------------------------------------
# Forward / selection / loss


def unit_outputs(probs, model: NAModel):
    """Stack every unit's routed batch: shape (M, B, C)."""
    stacked = np.empty((len(model.units),) + probs.shape)
    for m, unit in enumerate(model.units):
        np.matmul(probs, unit.q.data.T, out=stacked[m])
    return stacked


def _route(probs, labels, model: NAModel):
    """``attention_outputs`` for labels already known to lie in range."""
    rows = np.arange(probs.shape[0])
    stacked = unit_outputs(probs, model)
    sel = stacked[:, rows, labels].argmax(axis=0)
    return sel, stacked[sel, rows, :]


def attention_outputs(probs, labels, model: NAModel):
    """Route each sample through its maximum-confidence unit.

    Returns (selected unit indices, routed probability rows). Argmax ties
    resolve to the lowest unit index.
    """
    return _route(probs, check_labels(labels, model.n_classes), model)


def na_loss_terms(probs, labels, model: NAModel):
    """Selection, routed rows, picked confidences, and the scalar loss.

    The labels are not checked here: they must lie in [0, n_classes), as
    ``na_loss`` and the trainer make sure.
    """
    sel, out = _route(probs, labels, model)
    picked, loss = _picked_nll(out, labels)
    return sel, out, picked, loss


def na_loss(probs, labels, model: NAModel) -> float:
    """Mean -log of each sample's selected-unit confidence at its label."""
    return na_loss_terms(probs, check_labels(labels, model.n_classes), model)[3]


def routed_backward(probs, sel, out_grad, model: NAModel):
    """Backpropagate a routed-output gradient through the selected units.

    Returns the gradient wrt the base probabilities. Learnable units
    accumulate their gradient contributions, then the identity-anchored
    term decay * (Q - I); frozen units receive neither.
    """
    gp = np.empty_like(probs)
    counts = np.bincount(sel, minlength=len(model.units))
    for m, unit in enumerate(model.units):
        if counts[m]:
            mask = sel == m
            sub = out_grad[mask]
            gp[mask] = sub @ unit.q.data
            if not unit.frozen:
                unit.q.grad += sub.T @ probs[mask]
        if not unit.frozen and unit.decay:
            unit.q.grad += unit.decay * (unit.q.data - model._eye)
    return gp

