"""Recursive self-distillation over the attention network.

Each outer round t blends the one-hot given labels (weight alpha**t) with
the previous round's routed predictions into per-sample soft supervisions,
then retrains on the soft cross-entropy. The teacher outputs are computed
once per round and frozen. After the supervisions are built, training for
that round never touches the given labels again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .attention import NAModel, attention_outputs, unit_outputs
from .nn import EPS, check_labels, label_columns


def alpha_schedule(t: int, alpha_base: float) -> float:
    """Given-label weight at round t: alpha_base ** t (t starts at 1)."""
    if t < 1:
        raise ConfigError(f"recursion rounds start at 1, got {t}")
    if not 0.0 < alpha_base <= 1.0:
        raise ConfigError(f"alpha_base must lie in (0, 1], got {alpha_base}")
    return float(alpha_base) ** int(t)


def combine_supervisions(given_labels, prev_probs, alpha: float):
    """Add alpha to each row's given-label entry, then divide by (1 + alpha).

    With rows on the simplex the result sums to 1 exactly in exact
    arithmetic; alpha = 0 returns prev_probs unchanged.
    """
    prev = np.asarray(prev_probs, dtype=np.float64)
    labels = check_labels(given_labels, prev.shape[1])
    if alpha < 0:
        raise ConfigError(f"alpha must be non-negative, got {alpha}")
    s = prev.copy()
    s[np.arange(s.shape[0]), labels] += alpha
    s /= 1.0 + alpha
    return s


def soft_nll_loss(attention_probs, supervisions) -> float:
    """Cross-entropy of soft supervisions against routed outputs.

    Reduces exactly to the hard routed NLL when every supervision row is
    one-hot. Probabilities are clamped at EPS before the log.
    """
    probs = np.asarray(attention_probs, dtype=np.float64)
    sup = np.asarray(supervisions, dtype=np.float64)
    if probs.shape != sup.shape:
        raise ConfigError(f"probs shape {probs.shape} != supervision shape {sup.shape}")
    logp = np.log(np.maximum(probs, EPS))
    return float(-np.mean(np.sum(sup * logp, axis=1)))


def soft_out_grad(out, supervisions):
    """Gradient of soft_nll_loss wrt the routed outputs."""
    b = out.shape[0]
    coef = -1.0 / (b * np.maximum(out, EPS))
    return np.where(out > EPS, supervisions * coef, 0.0)


def soft_attention_outputs(probs, supervisions, model: NAModel):
    """Route each sample through the unit maximizing its supervision-weighted
    log-likelihood.

    For one-hot supervisions this reduces to the max-confidence rule, so
    soft training degrades gracefully to the hard objective; unlike the
    hard rule it needs no label access.
    """
    b = probs.shape[0]
    stacked = unit_outputs(probs, model)
    scores = np.sum(supervisions[None, :, :] * np.log(np.maximum(stacked, EPS)), axis=2)
    sel = scores.argmax(axis=0)
    out = stacked[sel, np.arange(b), :]
    return sel, out


@dataclass
class StoppingRule:
    """Stop when the per-round validation improvement drops below the bar.

    ``min_improvement`` is in the units of the validation metric (an error
    fraction for clean validation, a loss otherwise). ``max_iterations`` of
    zero disables recursion entirely.
    """

    min_improvement: float = 0.002
    max_iterations: int = 4

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")


def snapshot_probs(net, models, features, given_labels, chunk_size: int = 2048):
    """Frozen teacher outputs, one (N, C_k) array per attribute.

    ``net.forward`` returns per-attribute probability batches; each sample
    goes through its selected unit of that attribute's model. One pass,
    deterministic for a fixed model.
    """
    n = features.shape[0]
    if n == 0:
        raise DataError("cannot snapshot an empty dataset")
    columns = label_columns(given_labels)
    outs: list[list[np.ndarray]] = [[] for _ in models]
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        for k, probs in enumerate(net.forward(features[start:stop])):
            _, out = attention_outputs(probs, columns[k][start:stop], models[k])
            outs[k].append(out)
    return [np.concatenate(chunks, axis=0) for chunks in outs]


def run_recursion(trainer, features, given_labels, *, alpha_base: float,
                  epochs_per_iteration: int, stopping: StoppingRule,
                  val_metric, on_iteration=None):
    """Drive the outer self-distillation rounds.

    ``trainer`` owns the network/units being refined in place; supervisions
    are rebuilt attribute by attribute from ``given_labels`` ((N,) or
    (N, K)). ``val_metric()`` returns the stopping quantity (lower is
    better) and is evaluated once at entry (round 0) and after every round.
    The model left on the trainer after the last round is the final model.
    Returns a list of per-round records.
    """
    if features.shape[0] == 0:
        raise DataError("empty dataset")
    if epochs_per_iteration < 1:
        raise ConfigError("epochs_per_iteration must be >= 1")
    columns = label_columns(given_labels)
    history = [float(val_metric())]
    records = []
    for t in range(1, stopping.max_iterations + 1):
        alpha = alpha_schedule(t, alpha_base)
        teachers = snapshot_probs(trainer.net, trainer.na_models, features, given_labels)
        supervisions = [combine_supervisions(y, teacher, alpha)
                        for y, teacher in zip(columns, teachers)]
        losses = [trainer.train_epoch_soft(features, supervisions)
                  for _ in range(epochs_per_iteration)]
        metric = float(val_metric())
        improvement = history[-1] - metric
        history.append(metric)
        record = {"iteration": t, "alpha": alpha, "train_losses": losses,
                  "val_metric": metric, "improvement": improvement}
        records.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if improvement < stopping.min_improvement:
            break
    return records
