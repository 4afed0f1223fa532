"""Multi-attribute classification: K heads on a shared trunk.

Each head is a Dense classifier over the trunk features; ``forward``
returns one probability batch per attribute, which is the network
interface ``training.Trainer`` works with, and the trunk accumulates
gradients from every head. Each attribute gets its own noise-unit model
sized to its class count, and the trainer sums the per-attribute losses
unweighted. Evaluation reports per-attribute error plus the joint error,
where a sample counts as correct only when every attribute is predicted
correctly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .nn import EVAL_CHUNK, Dense, Network, entropy_tuple, label_columns, softmax


@dataclass
class AttributeSpec:
    class_counts: list[int]
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.class_counts) < 1:
            raise ConfigError("need at least one attribute")
        if any(c < 2 for c in self.class_counts):
            raise ConfigError(f"every attribute needs >= 2 classes, got {self.class_counts}")
        if not self.names:
            self.names = [f"attr{k}" for k in range(len(self.class_counts))]
        if len(self.names) != len(self.class_counts):
            raise ConfigError("names and class_counts lengths differ")
        if (len(set(self.names)) != len(self.names) or "ALL" in self.names
                or not all(re.fullmatch(r"[A-Za-z0-9_-]+", name) for name in self.names)):
            raise ConfigError(f"attribute names must be distinct, not ALL, and made of "
                              f"letters, digits, _ and -; got {self.names}")

    @property
    def k(self) -> int:
        return len(self.class_counts)


class MultiHeadNetwork:
    """Shared trunk plus one Dense head per attribute."""

    def __init__(self, trunk: Network, attributes: AttributeSpec, seed=0):
        feature_dim = trunk.out_dim
        self.trunk = trunk
        self.attributes = attributes
        self.heads = [
            Network([Dense(feature_dim, c_k)], (feature_dim,),
                    seed=entropy_tuple(seed, 1000 + k))
            for k, c_k in enumerate(attributes.class_counts)
        ]

    @property
    def class_counts(self) -> list[int]:
        return list(self.attributes.class_counts)

    @property
    def names(self) -> list[str]:
        return list(self.attributes.names)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_parameters(self):
        """The trunk's named parameters, then ``head <name> w`` and ``b`` of each head."""
        named = self.trunk.named_parameters()
        for name, head in zip(self.names, self.heads):
            named += [(f"head {name} {which}", p) for which, p in zip("wb", head.parameters())]
        return named

    def forward(self, batch, cache=True):
        """One trunk pass, K head passes; returns per-attribute probabilities.
        ``cache`` is passed to every pass (see ``Network.forward``)."""
        feats = self.trunk.forward(batch, cache)
        return [softmax(head.forward(feats, cache)) for head in self.heads]

    def backward(self, dlogits_list):
        """Heads backpropagate individually; the trunk sees the sum of their
        input gradients. Parameter gradients only: the trunk computes no
        input gradient."""
        dfeats = None
        for head, dlogits in zip(self.heads, dlogits_list):
            d = head.backward(dlogits)
            dfeats = d if dfeats is None else dfeats + d
        self.trunk.backward(dfeats, input_grad=False)


def all_metric(predictions, true_labels) -> tuple[list[float], float]:
    """Per-attribute error rates and the joint (every-attribute) error,
    compared column by column."""
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.shape != true_labels.shape or not true_labels.size:
        raise DataError(f"shapes {predictions.shape} and {true_labels.shape} differ or are empty")
    n = true_labels.shape[0]
    wrong = [p != y for p, y in zip(label_columns(predictions), label_columns(true_labels))]
    joint = wrong[0]
    for column in wrong[1:]:
        joint = joint | column
    return [np.count_nonzero(column) / n for column in wrong], np.count_nonzero(joint) / n


def _errors(net, features, true_labels) -> tuple[list[float], float]:
    """``all_metric`` of the heads of ``net`` (``OneHead`` or
    ``MultiHeadNetwork``) against true labels, (N,) for one head: argmax
    predictions of the base network alone, from one forward-only pass per
    ``EVAL_CHUNK`` rows (see ``Network.forward``)."""
    if true_labels is None:
        raise DataError("evaluation needs true labels")
    if features.shape[0] == 0:
        raise DataError("evaluation needs at least one sample")
    chunks = [[probs.argmax(axis=1)
               for probs in net.forward(features[start:start + EVAL_CHUNK], cache=False)]
              for start in range(0, features.shape[0], EVAL_CHUNK)]
    preds = np.stack([np.concatenate(head) for head in zip(*chunks)], axis=1)
    labels = np.asarray(true_labels)
    return all_metric(preds, labels.reshape(labels.shape[0], -1))


def evaluate_all_metric(net: MultiHeadNetwork, features,
                        true_labels) -> tuple[list[float], float]:
    """Per-attribute and joint test error on true labels."""
    return _errors(net, features, true_labels)
