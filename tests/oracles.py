"""Reference code the tests compare the package against.

Each oracle states one formula in its plainest form: one sample, one unit
or one attribute at a time. The package computes the same quantities in
batch form; the tests check that the two agree.
"""

import numpy as np

from noiseattn import (ConfigError, DataError, NAModel, project_column_stochastic,
                       softmax, softmax_backward)
from noiseattn.attention import na_loss_terms, routed_backward
from noiseattn.nn import _nll_grad, _picked_nll, check_labels, entropy_tuple
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


def project_units(model: NAModel):
    """Each learnable unit's Q (every unit after unit 0) replaced by
    ``project_column_stochastic`` of it."""
    for unit in model.units[1:]:
        unit.q.data[...] = project_column_stochastic(unit.q.data)


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
