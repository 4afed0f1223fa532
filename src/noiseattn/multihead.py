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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .nn import Dense, Network, entropy_tuple, softmax


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

    def parameters(self):
        params = self.trunk.parameters()
        for head in self.heads:
            params.extend(head.parameters())
        return params

    def forward(self, batch):
        """One trunk pass, K head passes; returns per-attribute probabilities."""
        feats = self.trunk.forward(batch)
        return [softmax(head.forward(feats)) for head in self.heads]

    def backward(self, dlogits_list):
        """Heads backpropagate individually; the trunk sees their sum."""
        dfeats = None
        for head, dlogits in zip(self.heads, dlogits_list):
            d = head.backward(dlogits)
            dfeats = d if dfeats is None else dfeats + d
        return self.trunk.backward(dfeats)

    def predict(self, batch):
        """Per-attribute argmax classes via trunk + heads only (no units)."""
        probs = self.forward(batch)
        return np.stack([p.argmax(axis=1) for p in probs], axis=1)


def all_metric(predictions, true_labels) -> tuple[list[float], float]:
    """Per-attribute error rates and the joint (every-attribute) error."""
    predictions = np.asarray(predictions)
    true_labels = np.asarray(true_labels)
    if predictions.shape != true_labels.shape:
        raise DataError(f"prediction shape {predictions.shape} != label shape {true_labels.shape}")
    wrong = predictions != true_labels
    per_attr = [float(np.mean(wrong[:, k])) for k in range(wrong.shape[1])]
    return per_attr, float(np.mean(wrong.any(axis=1)))


def evaluate_all_metric(net: MultiHeadNetwork, features, true_labels,
                        chunk_size: int = 4096) -> tuple[list[float], float]:
    """Per-attribute and joint test error on true labels."""
    if true_labels is None:
        raise DataError("evaluation needs true labels")
    preds = [net.predict(features[start:start + chunk_size])
             for start in range(0, features.shape[0], chunk_size)]
    return all_metric(np.concatenate(preds, axis=0), true_labels)
