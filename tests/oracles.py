"""Reference code the tests compare the package against.

Each oracle states one formula in its plainest form: one sample, one unit
or one attribute at a time. The package computes the same quantities in
batch form; the tests check that the two agree. The synthetic-data
oracles go the other way: they make all values at once, where the
package writes them block by block.
"""

import numpy as np

from noiseattn import ConfigError, DataError, NAModel, softmax, softmax_backward
from noiseattn.attention import attention_outputs, na_loss_terms, routed_backward
from noiseattn.data import Dataset, _blob_centers
from noiseattn.nn import (EVAL_CHUNK, TEACHER_CHUNK, _nll_grad, _picked_nll, check_labels,
                          entropy_tuple, label_columns)
from noiseattn.training import STREAM_SHUFFLE


def na_forward(p_base, unit):
    """Map a base probability vector through one unit: returns Q @ p."""
    p_base = np.asarray(p_base, dtype=np.float64)
    if p_base.shape != (unit.q.data.shape[0],):
        raise ConfigError(f"probability vector shape {p_base.shape} != ({unit.q.data.shape[0]},)")
    return unit.q.data @ p_base


def select_unit(p_base, given_label: int, units) -> int:
    """Index of the unit giving the observed label the highest probability.

    Ties resolve to the lowest index, so the identity unit wins whenever
    the base prediction is already one-hot at the given label.
    """
    best, best_conf = 0, -np.inf
    for m, unit in enumerate(units):
        conf = float(unit.q.data[given_label] @ np.asarray(p_base, dtype=np.float64))
        if conf > best_conf:
            best, best_conf = m, conf
    return best


def combine_supervision(given_label: int, prev_probs, alpha: float):
    """Add alpha to the given-label entry, then divide by (1 + alpha).

    With prev_probs on the simplex the result sums to 1 exactly in exact
    arithmetic; alpha = 0 returns prev_probs unchanged.
    """
    prev = np.asarray(prev_probs, dtype=np.float64)
    if alpha < 0:
        raise ConfigError(f"alpha must be non-negative, got {alpha}")
    if not 0 <= given_label < prev.shape[-1]:
        raise DataError(f"label {given_label} out of range [0, {prev.shape[-1]})")
    s = prev.copy()
    s[given_label] += alpha
    s /= 1.0 + alpha
    return s


def combine_supervisions(given_labels, prev_probs, alpha: float):
    """``combine_supervision`` of each row of ``prev_probs`` with its given
    label, as a new (N, C) array; ``prev_probs`` is left as it was."""
    return np.array([combine_supervision(int(y), p, alpha)
                     for y, p in zip(given_labels, prev_probs)])


def multi_forward(net, batch):
    return net.forward(batch)


def multi_attribute_loss(probs_list, labels, na_models) -> tuple[float, list[float]]:
    """Unweighted sum of per-attribute routed NLLs, plus the per-attribute terms."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[1] != len(probs_list):
        raise ConfigError(f"labels shape {labels.shape} does not carry {len(probs_list)} attributes")
    per_attr = [na_loss(probs_list[k], labels[:, k], na_models[k])
                for k in range(len(probs_list))]
    return float(sum(per_attr)), per_attr


def decay_penalty(model: NAModel) -> float:
    """Sum of 0.5 * decay * ||Q - I||_F^2 over the learnable units, those after unit 0.

    This is the potential whose gradient routed_backward adds; it is kept
    out of the reported NLL and only shapes updates.
    """
    total = 0.0
    for unit in model.units[1:]:
        if unit.decay:
            diff = unit.q.data - np.eye(unit.q.data.shape[0])
            total += 0.5 * unit.decay * float(np.sum(diff * diff))
    return total


def uniform_flip_matrix(c: int, rho: float) -> np.ndarray:
    """Column-stochastic matrix: diagonal 1 - rho, off-diagonal rho/(c-1)."""
    if c < 2:
        raise ConfigError(f"need at least 2 classes, got {c}")
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho must lie in [0, 1), got {rho}")
    m = np.full((c, c), rho / (c - 1))
    np.fill_diagonal(m, 1.0 - rho)
    return m


def project_matrix(q):
    """One square matrix clamped to [0, inf), each column divided by its
    sum; a column that clamps to all zeros becomes the identity column."""
    out = np.maximum(np.asarray(q, dtype=np.float64), 0.0)
    sums = out.sum(axis=0)
    for i in range(out.shape[1]):
        if sums[i] <= 0.0:
            out[:, i] = 0.0
            out[i, i] = 1.0
            sums[i] = 1.0
    out /= sums
    return out


def project_units(model: NAModel):
    """Each learnable unit's Q (every unit after unit 0) replaced by
    ``project_matrix`` of it, one unit at a time."""
    for unit in model.units[1:]:
        unit.q.data[...] = project_matrix(unit.q.data)


def unit_outputs_stacked(probs, model: NAModel):
    """Every unit's routed batch, one matrix product per unit, stacked: (M, B, C)."""
    return np.stack([probs @ unit.q.data.T for unit in model.units])


def routed_backward_masks(probs, sel, out_grad, model: NAModel):
    """``routed_backward`` as one boolean mask per unit: every unit's
    gradient term first, then every decay term against a fresh identity.
    Only the units after unit 0 take either."""
    gp = np.empty_like(probs)
    for m, unit in enumerate(model.units):
        mask = sel == m
        if mask.any():
            sub = out_grad[mask]
            gp[mask] = sub @ unit.q.data
            if m > 0:
                unit.q.grad += sub.T @ probs[mask]
    for unit in model.units[1:]:
        if unit.decay:
            unit.q.grad += unit.decay * (unit.q.data - np.eye(unit.q.data.shape[0]))
    return gp


def plain_epochs(net, settings, features, labels, seed, epochs: int) -> list[float]:
    """Mean batch losses of ``epochs`` passes of plain softmax-NLL training
    of a single-label network: no noise units. Batches follow the shuffle
    stream of a ``Trainer`` built with ``seed``; each parameter takes
    momentum SGD with its own velocity buffer."""
    rng = np.random.default_rng(entropy_tuple(seed, STREAM_SHUFFLE))
    params = net.parameters()
    velocities = [np.zeros_like(p.data) for p in params]
    n, bs = features.shape[0], settings.batch_size
    losses = []
    for _ in range(epochs):
        order, total = rng.permutation(n), 0.0
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            probs = softmax(net.forward(features[idx]))
            picked, loss = _picked_nll(probs, labels[idx])
            net.backward(softmax_backward(probs, _nll_grad(probs, labels[idx], picked)))
            for p, v in zip(params, velocities):
                v *= settings.momentum
                v += p.grad
                if settings.weight_decay:
                    v += settings.weight_decay * p.data
                p.data -= settings.lr * v
                p.grad[...] = 0.0
            total += loss * idx.size
        losses.append(total / n)
    return losses


# Helpers only the tests call. The package computes these inline: the
# trainer takes the NLL and routed gradients from the terms of its loss,
# and evaluation takes argmax predictions from ``forward``.


def nll_loss(probs, labels) -> float:
    """Mean negative log likelihood of the given labels, clamped at EPS."""
    return _picked_nll(probs, check_labels(labels, probs.shape[1]))[1]


def nll_loss_grad(probs, labels):
    """Gradient of ``nll_loss`` wrt the probabilities."""
    labels = check_labels(labels, probs.shape[1])
    return _nll_grad(probs, labels, probs[np.arange(probs.shape[0]), labels])


def na_loss(probs, labels, model: NAModel) -> float:
    """Mean -log of each sample's selected-unit confidence at its label."""
    return na_loss_terms(probs, check_labels(labels, model.n_classes), model)[3]


def na_backward(probs, labels, model: NAModel, terms=None):
    """Gradient of the routed NLL wrt base probabilities (units accumulate)."""
    labels = check_labels(labels, model.n_classes)
    if terms is None:
        sel, out, picked, _ = na_loss_terms(probs, labels, model)
    else:
        sel, out, picked = terms
    return routed_backward(probs, sel, _nll_grad(out, labels, picked), model)


def infer(net, x):
    """Base-network probabilities; noise units are never applied here."""
    return softmax(net.forward(x))


def n_params(net) -> int:
    """Number of scalar parameters of a network."""
    return sum(p.size for p in net.parameters())


def zero_grad(net):
    """Zero the gradient buffer of every parameter of a network."""
    for p in net.parameters():
        p.grad[...] = 0.0


def param_vector(net) -> np.ndarray:
    """Every parameter of a network, flattened and concatenated in order."""
    return np.concatenate([p.data.ravel() for p in net.parameters()] or [np.zeros(0)])


def synthetic_one_shot(spec):
    """``generate_synthetic`` with every mean, every draw and their sum made
    at full size, one expression per kind."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "blobs":
        centers = _blob_centers(rng, spec.classes, spec.dim, spec.sigma, spec.separation)
    elif spec.kind == "patches":
        templates = rng.normal(size=(spec.classes, spec.height, spec.width))

    def make(n):
        y = np.arange(n, dtype=np.int64) % spec.classes
        if spec.kind == "blobs":
            x = centers[y] + spec.sigma * rng.normal(size=(n, spec.dim))
        elif spec.kind == "moons":
            t = rng.uniform(0.0, np.pi, size=n)
            upper = np.stack([np.cos(t), np.sin(t)], axis=1)
            lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
            x = np.where(y[:, None] == 1, lower, upper) + spec.sigma * rng.normal(size=(n, 2))
        else:
            x = templates[y] + spec.sigma * rng.normal(size=(n, spec.height, spec.width))
        return Dataset(x.reshape(n, -1), y.copy(), spec.classes, y.copy())

    return make(spec.n_train), make(spec.n_test)


def synthetic_multi_one_shot(spec, class_counts):
    """``generate_synthetic_multi`` with each attribute's labels, then each
    attribute's whole feature block, drawn at once and joined at the end."""
    rng = np.random.default_rng(spec.seed)
    centers = [_blob_centers(rng, c_k, spec.dim, spec.sigma, spec.separation)
               for c_k in class_counts]

    def make(n):
        labels = np.stack(
            [rng.integers(0, c_k, size=n) for c_k in class_counts], axis=1).astype(np.int64)
        blocks = [centers[k][labels[:, k]] + spec.sigma * rng.normal(size=(n, spec.dim))
                  for k in range(len(class_counts))]
        return Dataset(np.concatenate(blocks, axis=1), labels.copy(), max(class_counts),
                       labels.copy())

    return make(spec.n_train), make(spec.n_test)


def errors_by_chunk(net, features, true_labels):
    """Per-head and joint error of a heads view: each head's argmax
    predictions of every ``EVAL_CHUNK``-row forward-only pass, joined,
    then compared with its label column."""
    n = features.shape[0]
    chunks = [[probs.argmax(axis=1)
               for probs in net.forward(features[start:start + EVAL_CHUNK], cache=False)]
              for start in range(0, n, EVAL_CHUNK)]
    wrong = [np.concatenate(head) != y
             for head, y in zip(zip(*chunks), label_columns(true_labels))]
    joint = np.logical_or.reduce(wrong)
    return [np.count_nonzero(column) / n for column in wrong], np.count_nonzero(joint) / n


def snapshot_probs_by_chunk(net, models, features, given_labels):
    """Teacher outputs: the routed rows of every ``TEACHER_CHUNK``-row
    forward-only pass, joined per attribute."""
    columns = label_columns(given_labels)
    outs = [[] for _ in models]
    for start in range(0, features.shape[0], TEACHER_CHUNK):
        rows = slice(start, start + TEACHER_CHUNK)
        for k, probs in enumerate(net.forward(features[rows], cache=False)):
            outs[k].append(attention_outputs(probs, columns[k][rows], models[k])[1])
    return [np.concatenate(chunks) for chunks in outs]
