"""Reference code the tests compare the package against.

Each oracle states one formula in its plainest form: one sample, one unit
or one attribute at a time. The package computes the same quantities in
batch form; the tests check that the two agree.
"""

import numpy as np

from noiseattn import ConfigError, DataError, na_loss


def na_forward(p_base, unit):
    """Map a base probability vector through one unit: returns Q @ p."""
    p_base = np.asarray(p_base, dtype=np.float64)
    if p_base.shape != (unit.n_classes,):
        raise ConfigError(f"probability vector shape {p_base.shape} != ({unit.n_classes},)")
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
