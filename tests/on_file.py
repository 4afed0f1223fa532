"""Test sets in the one form ``evaluate`` takes: saved as an NLD1 file and
opened as the data stage and CLI ``eval`` open one, so the features are
the file's ``FeatureFile``; and what ``evaluate`` gives for such a set,
scored by ``multihead._errors`` on the arrays, as the validation metric
scores its rows."""

import numpy as np

from noiseattn import Dataset, load_dataset, save_dataset
from noiseattn.multihead import _errors


def on_file(path, features, true_labels):
    """The set of ``features`` and ``true_labels`` (None for a set without
    them, whose given labels are then zeros), written to ``path`` and opened
    with ``load_dataset(features=False)``."""
    given = np.zeros(len(features), int) if true_labels is None else true_labels
    classes = max(2, int(np.max(given, initial=0)) + 1)
    save_dataset(Dataset(features, given, classes, true_labels), path)
    return load_dataset(path, features=False)


def in_memory(view, features, true_labels):
    """``evaluate``'s result for the set of ``features`` and ``true_labels``:
    the joint error of a ``OneHead``, or (per-attribute errors, joint
    error) of a ``MultiHeadNetwork``."""
    errors = _errors(view, features, true_labels)
    return errors[1] if view.attributes is None else errors
