"""The NLD1 and NAM writers and their reader, beside the whole-file forms
they replaced.

The writers send each array's buffer straight to the file, and the reader
hands out views of the file's bytes. The files must keep the bytes of the
old writers, which built one ``bytearray`` of ``.tobytes()`` pieces, and a
loaded dataset must own writeable arrays, as the old copies did.
"""

import struct

import numpy as np
import pytest

from noiseattn import (AttributeSpec, Dataset, Dense, FormatError, MultiHeadNetwork, NAModel,
                       Network, ReLU, load_dataset, load_snapshot, save_dataset, save_snapshot)
from noiseattn.data import _HEADER, NLD1_MAGIC, NLD1_VERSION
from noiseattn.harness import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, _meta_lines, _param_chain
from noiseattn.training import as_heads


def bytearray_nld(dataset):
    has_true = dataset.true_labels is not None
    blob = bytearray()
    blob += NLD1_MAGIC
    blob += _HEADER.pack(NLD1_VERSION, dataset.n, dataset.d, dataset.c,
                         dataset.k, 1 if has_true else 0)
    blob += np.ascontiguousarray(dataset.features, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(dataset.given_labels, dtype="<u4").tobytes()
    if has_true:
        blob += np.ascontiguousarray(dataset.true_labels, dtype="<u4").tobytes()
    return bytes(blob)


def bytearray_nam(net, models):
    view = as_heads(net)
    meta = _meta_lines(view, models).encode()
    chain = _param_chain(view.parameters(), models)
    vec = np.concatenate([p.data.ravel() for p in chain]) if chain else np.zeros(0)
    blob = bytearray()
    blob += SNAPSHOT_MAGIC
    blob += struct.pack("<II", SNAPSHOT_VERSION, len(meta))
    blob += meta
    blob += struct.pack("<Q", vec.size)
    blob += np.ascontiguousarray(vec, dtype="<f8").tobytes()
    return bytes(blob)


def datasets():
    rng = np.random.default_rng(3)
    single = rng.integers(0, 4, size=50)
    multi = np.stack([rng.integers(0, 3, size=40), rng.integers(0, 5, size=40)], axis=1)
    return {"single": Dataset(rng.normal(size=(50, 6)), single, 4, (single + 1) % 4),
            "multi": Dataset(rng.normal(size=(40, 3)), multi, 5, None)}


def models_with_units(class_counts, seed):
    rng = np.random.default_rng(seed)
    models = [NAModel(c) for c in class_counts]
    for model in models:
        model.add_unit(decay=0.25, jitter=0.3, rng=rng)
    return models


def views():
    single = Network([Dense(5, 8), ReLU(), Dense(8, 3)], (5,), seed=4)
    multi = MultiHeadNetwork(Network([Dense(4, 6), ReLU()], (4,), seed=5),
                             AttributeSpec([3, 4], ["a", "b"]), seed=6)
    return {"single": (single, models_with_units([3], 7)),
            "multi": (multi, models_with_units([3, 4], 8))}


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_save_dataset_writes_the_bytearray_bytes(tmp_path, kind):
    dataset = datasets()[kind]
    save_dataset(dataset, tmp_path / "d.nld")
    assert (tmp_path / "d.nld").read_bytes() == bytearray_nld(dataset)


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_save_snapshot_writes_the_bytearray_bytes(tmp_path, kind):
    net, models = views()[kind]
    save_snapshot(tmp_path / "s.nam", net, models)
    assert (tmp_path / "s.nam").read_bytes() == bytearray_nam(net, models)
    view, loaded = load_snapshot(tmp_path / "s.nam")
    assert [p.data.tobytes() for p in _param_chain(view.parameters(), loaded)] == [
        p.data.tobytes() for p in _param_chain(as_heads(net).parameters(), models)]


def owner(array):
    """The array at the root of ``array``'s chain of views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_a_loaded_dataset_owns_writeable_arrays(tmp_path, kind):
    """No loaded array is a view of the file's bytes: each is, or views,
    an array that owns its memory."""
    save_dataset(datasets()[kind], tmp_path / "d.nld")
    loaded = load_dataset(tmp_path / "d.nld")
    arrays = [loaded.features, loaded.given_labels, loaded.true_labels]
    for array in (a for a in arrays if a is not None):
        assert owner(array).flags.owndata
        assert array.flags.writeable and array.flags.c_contiguous
    loaded.features[0, 0] = 1.5


def test_a_bad_magic_is_reported_as_bytes(tmp_path):
    save_dataset(datasets()["single"], tmp_path / "d.nld")
    blob = bytearray((tmp_path / "d.nld").read_bytes())
    blob[:4] = b"XY\x00Z"
    (tmp_path / "d.nld").write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=r"^bad magic b'XY\\x00Z' at offset 0 "
                                          r"\(expected b'NLD1'\)$"):
        load_dataset(tmp_path / "d.nld")
