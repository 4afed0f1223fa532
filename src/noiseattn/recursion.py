"""Recursive self-distillation over the attention network.

Each outer round t blends the one-hot given labels (weight alpha**t) with
the previous round's routed predictions into per-sample soft supervisions,
then retrains on the soft cross-entropy. The teacher outputs are computed
once per round and frozen. After the supervisions are built, training for
that round never touches the given labels again. The supervisions
overwrite the teacher outputs they are built from, and a round releases
them once its training ends, so a round holds one (N, C_k) array per
attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, in_epoch
from .attention import NAModel, attention_outputs, unit_outputs
from .nn import EPS, TEACHER_CHUNK, label_columns, log_grad_coef, row_sum


def alpha_schedule(t: int, alpha_base: float) -> float:
    """Given-label weight at round t: alpha_base ** t (t starts at 1).
    ``alpha_base`` lies in (0, 1], as ``RecursionSchedule`` checks."""
    if t < 1:
        raise ConfigError(f"recursion rounds start at 1, got {t}")
    return float(alpha_base) ** int(t)


def combine_supervisions(given_labels, prev_probs, alpha: float):
    """Add alpha to each row's given-label entry, then divide by (1 + alpha).

    With rows on the simplex the result sums to 1 exactly in exact
    arithmetic; alpha = 0 returns prev_probs unchanged. ``alpha_schedule``
    gives alpha >= 0, and ``run_recursion`` checks the labels.
    ``prev_probs`` is left as it was.
    """
    return _combine(given_labels, np.array(prev_probs, dtype=np.float64), alpha)


def _combine(given_labels, probs, alpha: float):
    """``combine_supervisions`` written over ``probs``, a float64 array,
    which it returns."""
    probs[np.arange(probs.shape[0]), given_labels] += alpha
    probs /= 1.0 + alpha
    return probs


def soft_nll_loss(attention_probs, supervisions) -> float:
    """Cross-entropy of soft supervisions against routed outputs.

    Reduces exactly to the hard routed NLL when every supervision row is
    one-hot. Probabilities are clamped at EPS before the log. Both are
    float64 arrays of one shape, as ``Trainer.train_epoch_soft`` checks.
    """
    logp = np.log(np.maximum(attention_probs, EPS))
    return float(-(np.add.reduce(row_sum(supervisions * logp)) / attention_probs.shape[0]))


def soft_out_grad(out, supervisions):
    """Gradient of soft_nll_loss wrt the routed outputs."""
    return supervisions * log_grad_coef(out, out.shape[0])


def soft_attention_outputs(probs, supervisions, model: NAModel):
    """Route each sample through the unit maximizing its supervision-weighted
    log-likelihood.

    For one-hot supervisions this reduces to the max-confidence rule, so
    soft training degrades gracefully to the hard objective; unlike the
    hard rule it needs no label access.
    """
    b = probs.shape[0]
    stacked = unit_outputs(probs, model)
    scores = row_sum(supervisions[None, :, :] * np.log(np.maximum(stacked, EPS)))
    sel = scores.argmax(axis=0)
    out = stacked[sel, np.arange(b), :]
    return sel, out


@dataclass
class RecursionSchedule:
    """The self-distillation rounds; the config's ``recursion.*`` keys.

    Up to ``iterations`` rounds (zero disables recursion) of ``epochs``
    epochs each, with given-label weight ``alpha_base ** t`` in round t.
    Rounds stop early once the per-round validation improvement drops
    below ``min_improvement``, in the units of the validation metric (an
    error fraction for clean validation, a loss otherwise). A config
    without ``recursion.epochs`` gives the rounds ``na.stage_epochs``.
    """

    iterations: int = 0
    alpha_base: float = 0.8
    epochs: int = 1
    min_improvement: float = 0.002  # 0.2 error points on the validation metric

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if not 0.0 < self.alpha_base <= 1.0:
            raise ConfigError(f"alpha_base must lie in (0, 1], got {self.alpha_base}")
        if self.iterations and self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1 when iterations > 0, got {self.epochs}")


def snapshot_probs(net, models, features, given_labels):
    """Frozen teacher outputs, one (N, C_k) array per attribute.

    ``net.forward`` returns per-attribute probability batches; each sample
    goes through its selected unit of that attribute's model. One
    forward-only pass per ``TEACHER_CHUNK`` rows: its Dense layers see the
    whole chunk, its conv layers one row block at a time. Each chunk's
    routed rows are written into the preallocated outputs. Deterministic
    for a fixed model. The set must be non-empty and its labels in range,
    as ``run_recursion`` checks.
    """
    n = features.shape[0]
    columns = label_columns(given_labels)
    outs = [np.empty((n, model.n_classes)) for model in models]
    for start in range(0, n, TEACHER_CHUNK):
        rows = slice(start, start + TEACHER_CHUNK)
        for probs, y, model, out in zip(net.forward(features[rows], cache=False), columns,
                                        models, outs):
            out[rows] = attention_outputs(probs, y[rows], model)[1]
    return outs


def run_recursion(trainer, features, given_labels, schedule: RecursionSchedule, *,
                  val_metric, on_iteration=None):
    """Drive the outer self-distillation rounds that ``schedule`` sets out.

    ``trainer`` owns the network/units being refined in place; each round's
    supervisions overwrite its teacher outputs, attribute by attribute, from
    ``given_labels`` ((N,) or (N, K)), and are released when its training
    ends. ``val_metric()`` returns the stopping quantity (lower is better)
    and is evaluated once at entry (round 0) and after every round. The
    model left on the trainer after the last round is the final model.
    Returns a list of per-round records. The set and its labels are
    checked here, once, before anything is evaluated or trained.
    """
    if features.shape[0] == 0:
        raise DataError("empty dataset")
    columns = trainer._columns(given_labels)
    history = [float(val_metric())]
    records = []
    for t in range(1, schedule.iterations + 1):
        alpha = alpha_schedule(t, schedule.alpha_base)
        supervisions = [_combine(y, teacher, alpha) for y, teacher in zip(
            columns, snapshot_probs(trainer.net, trainer.na_models, features, given_labels))]
        losses = []
        for epoch in range(1, schedule.epochs + 1):
            with in_epoch(epoch, of_round=t):
                losses.append(trainer.train_epoch_soft(features, supervisions))
        del supervisions  # before the evaluations and the next round's teacher pass
        metric = float(val_metric())
        improvement = history[-1] - metric
        history.append(metric)
        record = {"iteration": t, "alpha": alpha, "train_losses": losses,
                  "val_metric": metric, "improvement": improvement}
        records.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if improvement < schedule.min_improvement:
            break
    return records
