"""What the bench tracer pins, kept here until ``perfbench/tracer.py`` is
re-keyed (ROADMAP item 3): the multi-attribute heads view and the one
error computation of every heads view.

``MultiHeadNetwork`` is one Dense head per attribute on a shared trunk.
Its ``forward`` returns one probability batch per attribute, the network
interface of ``training.Trainer``, and the trunk sums every head's
gradient. ``_errors`` scores any heads view, ``OneHead`` included: the
per-attribute errors and the joint error, where a sample counts as
correct only when every attribute is predicted correctly.
"""

from __future__ import annotations

import numpy as np

from .config import AttributeSpec
from .errors import DataError
from .nn import (EVAL_CHUNK, Dense, Network, entropy_tuple, for_each_chunk, label_columns,
                 softmax)


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


def _errors(net, features, true_labels) -> tuple[list[float], float]:
    """Per-attribute error rates and the joint (every-attribute) error of the
    heads of ``net`` (``OneHead`` or ``MultiHeadNetwork``) against true
    labels, (N,) for one head: each head's argmax predictions of the base
    network alone, from one forward-only pass per ``EVAL_CHUNK`` rows (see
    ``Network.forward``), compared with its label column. Each chunk's
    comparison is written into one preallocated (N,) bool column per head,
    so no predictions outlive their chunk. ``for_each_chunk`` runs the
    chunks, on the calling thread and the chunk pool's when the rows hold
    two full chunks and the process has two CPUs; every chunk keeps its
    rows, so the result has the same bits on any number of threads.
    ``features`` is the validation rows' (N, D) array or a test set's open
    ``data.FeatureFile``, whose ``[rows]`` reads the chunk's rows. A set
    without rows is a ``DataError`` of its own."""
    n = features.shape[0]
    if not n:
        raise DataError("the set to evaluate holds no rows")
    columns = [] if true_labels is None else label_columns(true_labels)
    if len(columns) != len(net.names) or any(y.shape != (n,) for y in columns):
        got = ("" if true_labels is None else f": one column per head ({len(net.names)}) of "
               f"the {n} feature rows; got shape {np.shape(true_labels)}")
        raise DataError(f"evaluation needs true labels{got}")
    wrong = [np.empty(n, dtype=bool) for _ in columns]

    def score(rows):
        for probs, y, out in zip(net.forward(features[rows], cache=False), columns, wrong):
            np.not_equal(probs.argmax(axis=1), y[rows], out=out[rows])

    for_each_chunk(score, n, EVAL_CHUNK)
    joint = wrong[0]
    for column in wrong[1:]:
        joint = joint | column
    return [np.count_nonzero(column) / n for column in wrong], np.count_nonzero(joint) / n


def evaluate_all_metric(net: MultiHeadNetwork, features,
                        true_labels) -> tuple[list[float], float]:
    """Per-attribute and joint test error on true labels."""
    return _errors(net, features, true_labels)
