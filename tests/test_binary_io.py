"""The one binary layer of NLD1 and NAM files, ``data._write`` and
``data._Reader``, beside the whole-file forms it replaced.

The writer sends each array's buffer straight to the file. The reader
checks each read against the bytes left, then reads it with ``readinto``
into an array that owns its memory, so a load holds no copy of the file.
The files must keep the bytes of the old writers, which built one
``bytearray`` of ``.tobytes()`` pieces, and a loaded dataset must own
writeable arrays, as the old copies did. A load peaks near what it keeps,
and the reader closes its file on every path.
"""

import builtins
import os
import struct

import numpy as np
import pytest

from noiseattn import (AttributeSpec, Dataset, Dense, FormatError, MultiHeadNetwork, NAModel,
                       Network, OneHead, ReLU, load_dataset, load_snapshot, save_dataset,
                       save_snapshot)
from noiseattn.data import _HEADER, NLD1_MAGIC, NLD1_VERSION, _Reader
from noiseattn.harness import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, _meta_lines
from noiseattn.training import _param_chain
from peaks import traced_peak


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


def bytearray_nam(view, models):
    meta = _meta_lines(view, models).encode()
    chain = [p for _, p in _param_chain(view, models)]
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
    single = OneHead(Network([Dense(5, 8), ReLU(), Dense(8, 3)], (5,), seed=4))
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
    view, models = views()[kind]
    save_snapshot(tmp_path / "s.nam", view, models)
    assert (tmp_path / "s.nam").read_bytes() == bytearray_nam(view, models)
    loaded_view, loaded = load_snapshot(tmp_path / "s.nam")
    assert [(name, p.data.tobytes()) for name, p in _param_chain(loaded_view, loaded)] == [
        (name, p.data.tobytes()) for name, p in _param_chain(view, models)]


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


def test_a_load_peaks_near_what_it_keeps(tmp_path):
    """100k rows of 24 features and 3 label columns, with true labels
    (21.6 MB on disk): the arrays kept are 24.0 MB. Reading the whole file
    and copying the arrays out of it peaked at 2.00x that."""
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 5, size=(100_000, 3))
    save_dataset(Dataset(rng.normal(size=(100_000, 24)), labels, 5, labels), tmp_path / "d.nld")
    loaded, peak = traced_peak(lambda: load_dataset(tmp_path / "d.nld"))
    kept = sum(a.nbytes for a in (loaded.features, loaded.given_labels, loaded.true_labels))
    assert kept == 24_000_000
    assert peak <= 1.15 * kept


def test_declared_counts_are_checked_before_anything_is_allocated(tmp_path):
    """A 25-byte header that declares 2**32 - 1 rows of 2**32 - 1 features."""
    path = tmp_path / "d.nld"
    path.write_bytes(NLD1_MAGIC + _HEADER.pack(NLD1_VERSION, 2**32 - 1, 2**32 - 1, 3, 0, 1))

    def load():
        with pytest.raises(FormatError, match=f"needed {(2**32 - 1) ** 2 * 8} bytes for "
                                              f"features at offset 25, have 0$"):
            load_dataset(path)

    assert traced_peak(load)[1] < 2**20


def test_a_file_cut_while_it_is_read_is_a_short_read(tmp_path):
    """The size is taken when the file is opened; fewer bytes arriving
    than it promised is a FormatError, not a partly filled array."""
    rng = np.random.default_rng(12)
    save_dataset(Dataset(rng.normal(size=(2000, 6)), np.zeros(2000, int), 2), tmp_path / "d.nld")
    with _Reader(tmp_path / "d.nld", "dataset", NLD1_MAGIC, NLD1_VERSION) as reader:
        reader.unpack("<IIIIB", "header")
        os.truncate(tmp_path / "d.nld", 20_000)
        with pytest.raises(FormatError, match="^short read of features at offset 25$"):
            reader.array(2000 * 6, "<f8", np.float64, "features")


def broken_files(tmp_path):
    """A valid NLD1 and NAM file, then each with a bad magic, a bad version,
    a cut, a trailing byte and, for the dataset, an out-of-range label."""
    save_dataset(datasets()["single"], tmp_path / "d.nld")
    save_snapshot(tmp_path / "s.nam", *views()["single"])
    for name in ("d.nld", "s.nam"):
        blob = (tmp_path / name).read_bytes()
        yield name, blob
        yield name, b"XY\x00Z" + blob[4:]
        yield name, blob[:4] + b"\x09" + blob[5:]
        yield name, blob[:-3]
        yield name, blob + b"\x00"
    blob = bytearray((tmp_path / "d.nld").read_bytes())
    blob[25 + 50 * 6 * 8] = 200
    yield "d.nld", bytes(blob)


def test_the_reader_closes_its_file_on_every_path(tmp_path, monkeypatch):
    files, opened, real_open = list(broken_files(tmp_path)), [], builtins.open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(builtins, "open", recording_open)
    for name, blob in files:
        (tmp_path / "fuzzed").write_bytes(blob)
        try:
            (load_dataset if name.endswith(".nld") else load_snapshot)(tmp_path / "fuzzed")
        except FormatError:
            pass
    readers = [fh for fh in opened if fh.mode == "rb"]
    assert len(readers) == len(files) == 11 and all(fh.closed for fh in readers)
