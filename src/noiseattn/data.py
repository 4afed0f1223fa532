"""Datasets, synthetic generators, label-noise injection, and the NLD1 format.

All generation and injection is a pure function of (inputs, seed). The
uniform injector flips an exact rounded fraction of samples, chosen
without replacement, and a flipped sample never keeps its true label,
so the noise level is the exact fraction of mislabeled samples.
Synthetic features are written in place, one block of rows at a time
(``_generated`` walks them, ``_fill`` and ``_moons`` fill one), so
generation peaks near the bytes it keeps. That changes no draw: a
Generator's normal and uniform streams do not depend on how a draw is
split, the sum is elementwise, and moons draws all its angles before any
noise. A sigma or separation that overflows the features is a ConfigError.

A generated set's given labels are its true labels, held as one read-only
array, so writing into them raises instead of corrupting the truth;
``inject_noise`` copies before it writes. Nothing but the harness's
fit/validation split writes into a dataset's arrays (``_move_rows``), and
only into the features of the training set it consumes.

Every file the package writes is written by ``_Writer`` alone, by
positional writes (``os.pwrite``): a write the system refuses, a full disk
or a directory in the file's place say, is a ConfigError naming the file,
and the unfinished file is removed. A text artifact is built in memory and
written whole (``_write_text``). Binary files are read by ``_Reader``
alone, by positional reads (``os.preadv``), each checked against the
file's size before anything is allocated.
``load_dataset`` reads an NLD1 file whole, or, with ``features=False``,
only its header and labels: the features are then a ``FeatureFile``,
which a ``with`` block opens and whose ``[a:b]`` reads and checks rows
a..b alone. Test sets are scored that way, one evaluation chunk at a
time, so no run or CLI ``eval`` holds a test set's features; a non-finite
row there is the ``FormatError`` that loading the file whole gives.

The data stage streams a generated test set too: given a path, the
generators write its header and labels, then its features one block at
a time, in the draws and the file bytes of the set made in memory and
saved. A pass after the first (each attribute's columns after the first
attribute's; the noise of moons after their points) reads each block
back, fills it and writes it again. So no data stage holds a test
set's features; training sets, which training needs, stay in memory.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .nn import check_labels, entropy_tuple, label_columns

NLD1_MAGIC = b"NLD1"
NLD1_VERSION = 1
_HEADER = struct.Struct("<IIIIIB")  # version, N, D, C, K, has_true_labels


_NON_FINITE = "features contain non-finite values"
_INVALID = "invalid dataset content: "  # a FormatError of a loaded dataset


def _all_finite(x) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):  # a finite sum has no NaN or inf
        finite = np.isfinite(np.add.reduce(x, axis=None))
    return bool(finite or np.isfinite(x).all())  # the sum may have overflowed


@dataclass
class Dataset:
    """Features plus given labels, optional hidden true labels.

    ``given_labels`` is (N,) for single-label data or (N, K) for
    multi-attribute data; ``c`` is the exclusive upper bound on every
    label value (the max class count in multi-attribute mode).
    ``features`` is an (N, D) array, checked finite here, or the
    ``FeatureFile`` of an NLD1 file, whose rows are checked as they are read.
    """

    features: np.ndarray
    given_labels: np.ndarray
    c: int
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        on_file = isinstance(self.features, FeatureFile)  # its rows are checked as read
        if not on_file:
            self.features = np.ascontiguousarray(self.features, dtype=np.float64)
            if self.features.ndim != 2:
                raise DataError(f"features must be 2-D (N, D), got shape {self.features.shape}")
        self._check_labels()
        if not (on_file or _all_finite(self.features)):
            raise DataError(_NON_FINITE)

    def _check_labels(self):
        """Hold the labels as C-ordered int64 arrays and check them against
        the features' row count and ``c``; the features are not read."""
        self.given_labels = np.ascontiguousarray(self.given_labels, dtype=np.int64)
        if self.true_labels is not None:
            self.true_labels = np.ascontiguousarray(self.true_labels, dtype=np.int64)
        if self.given_labels.ndim not in (1, 2):
            raise DataError(f"labels must be 1-D or 2-D, got shape {self.given_labels.shape}")
        if self.given_labels.shape[0] != self.features.shape[0]:
            raise DataError("label count differs from sample count")
        if self.c < 2:
            raise DataError(f"need at least 2 classes, got {self.c}")
        check_labels(self.given_labels, self.c, "given labels")
        if self.true_labels is not None:
            if self.true_labels.shape != self.given_labels.shape:
                raise DataError("true labels must match the given-label shape")
            check_labels(self.true_labels, self.c, "true labels")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def k(self) -> int:
        """Number of attribute columns; 0 means single-label."""
        return 0 if self.given_labels.ndim == 1 else self.given_labels.shape[1]


@dataclass
class NoiseSpec:
    """The ``noise.*`` config section: how to corrupt the given labels.

    Modes: "none" (no injection), "uniform" (exact-count flips at rate
    ``rho``, uniform wrong target), "matrix" (each given label drawn from
    the column, indexed by the true class, of the column-stochastic
    transition matrix in the CSV file ``matrix_path``) and "per_class"
    (uniform flips at the rate ``per_class`` gives each true class).
    ``rho`` holds one rate for every label column or one per column, and
    column i draws from ``seed`` and i. An unset ``matrix_path`` is "" and
    unset ``per_class`` rates are (). Construction makes every check that
    needs no data; each message starts with the field it checks, which the
    config reader prefixes with ``noise.``.
    """

    mode: str = "none"
    rho: tuple[float, ...] = (0.0,)
    matrix_path: str = ""
    per_class: tuple[float, ...] = ()
    seed: int | tuple = 0

    def __post_init__(self):
        if self.mode not in ("none", "uniform", "matrix", "per_class"):
            raise ConfigError(f"mode must be none, uniform, matrix or per_class, "
                              f"got {self.mode!r}")
        if self.mode == "per_class" and not self.per_class:
            raise ConfigError("per_class is needed in per_class mode")
        if self.mode == "matrix" and not self.matrix_path:
            raise ConfigError("matrix_path is needed in matrix mode")
        rates = {"uniform": ("rho", self.rho), "per_class": ("per_class", self.per_class)}
        key, values = rates.get(self.mode, ("", ()))
        for value in values:
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {value}")
        if min(entropy_tuple(self.seed)) < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def rhos(self, columns: int) -> tuple[float, ...]:
        """One rho per label column; a single rho serves every column."""
        if len(self.rho) not in (1, columns):
            want = "1 value" if columns == 1 else f"1 or {columns} values"
            raise ConfigError(f"noise.rho needs {want}, got {len(self.rho)}")
        return self.rho * columns if len(self.rho) == 1 else self.rho


def load_noise_matrix(path) -> np.ndarray:
    """Read a transition matrix CSV; it must hold values, be square and be
    column-stochastic."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data": see below
            t = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not read noise matrix {path!r}: {exc}") from exc
    if not t.size:
        raise ConfigError(f"noise matrix {path} holds no values")
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ConfigError(f"transition matrix must be square, got {t.shape}")
    if (t < 0).any() or not np.allclose(t.sum(axis=0), 1.0, atol=1e-9):
        raise ConfigError("transition matrix columns must be stochastic")
    return t


def _flip_share(given, true, idx, rate, c, rng):
    """Flip ``round(rate * len(idx))`` of the samples ``idx``, chosen
    without replacement, each to a uniformly drawn other class (true + a
    shift in [1, c), mod c); returns the chosen indices."""
    chosen = idx[rng.permutation(idx.size)[:int(round(rate * idx.size))]]
    given[chosen] = (true[chosen] + rng.integers(1, c, size=chosen.size)) % c
    return chosen


def noisy_labels(true_labels, c: int, spec: NoiseSpec, rho: float, matrix, rng):
    """Corrupt one label column of ``c`` classes as ``spec.mode`` says: at
    rate ``rho``, at the ``spec.per_class`` rates or through the loaded
    ``matrix``; returns (given labels, sorted flip indices)."""
    true = check_labels(np.ascontiguousarray(true_labels, dtype=np.int64), c, "true labels")
    given = true.copy()
    if spec.mode == "uniform":
        return given, np.sort(_flip_share(given, true, np.arange(true.size), rho, c, rng))
    if spec.mode == "per_class":
        if len(spec.per_class) != c:
            raise ConfigError(f"need {c} per-class rates, got {len(spec.per_class)}")
        flipped = [_flip_share(given, true, np.flatnonzero(true == cls), rate, c, rng)
                   for cls, rate in enumerate(spec.per_class)]
        return given, np.sort(np.concatenate(flipped or [np.zeros(0, dtype=np.int64)]))

    if matrix.shape[0] != c:
        raise ConfigError(f"transition matrix is {matrix.shape[0]}x{matrix.shape[0]}, "
                          f"data has {c} classes")
    cdf_by_true = np.cumsum(matrix, axis=0).T  # row i: cdf of observed labels given true i
    u = rng.random(true.size)
    given = np.minimum((u[:, None] >= cdf_by_true[true]).sum(axis=1), c - 1).astype(np.int64)
    return given, np.flatnonzero(given != true)


def inject_noise(dataset: Dataset, spec: NoiseSpec, class_counts) -> tuple[Dataset, list]:
    """Corrupt each label column of a dataset with true labels, which are
    kept; single-label data is one column. Column i has ``class_counts[i]``
    classes and draws from ``default_rng(entropy_tuple(spec.seed, i))``.
    Returns the noisy dataset and one flip index array per column. It
    shares the features of ``dataset``, which were checked when that was
    made, so they are not read again; its labels are checked."""
    if spec.mode == "none":
        raise ConfigError("noise.mode is none; nothing to inject")
    if dataset.true_labels is None:
        raise DataError("noise injection needs a dataset with true labels")
    given = dataset.true_labels.copy()
    columns = label_columns(given)
    if len(class_counts) != len(columns):
        raise ConfigError(f"need one class count per label column, got {len(class_counts)} "
                          f"for {len(columns)}")
    rhos = spec.rhos(len(columns))
    matrix = load_noise_matrix(spec.matrix_path) if spec.mode == "matrix" else None
    flip_lists = []
    for i, (column, c) in enumerate(zip(columns, class_counts)):
        rng = np.random.default_rng(entropy_tuple(spec.seed, i))
        column[...], flips = noisy_labels(column, c, spec, rhos[i], matrix, rng)
        flip_lists.append(flips)
    noisy = copy.copy(dataset)
    noisy.given_labels, noisy.true_labels = given, dataset.true_labels.copy()
    noisy._check_labels()
    return noisy, flip_lists


def empirical_transition(true_labels, given_labels, c: int) -> np.ndarray:
    """Observed-given-true frequency matrix; columns indexed by true class."""
    m = np.zeros((c, c))
    np.add.at(m, (np.asarray(given_labels), np.asarray(true_labels)), 1.0)
    col = m.sum(axis=0)
    col[col == 0] = 1.0
    return m / col


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass
class SyntheticSpec:
    kind: str = "blobs"  # blobs | moons | patches
    classes: int = 3
    dim: int = 2
    sigma: float = 1.0
    separation: float = 6.0  # minimum center distance in sigmas (blobs)
    height: int = 8
    width: int = 8
    n_train: int = 1000
    n_test: int = 200
    seed: int | tuple = 0

    def __post_init__(self):  # each message starts with the field it checks
        if self.kind not in ("blobs", "moons", "patches"):
            raise ConfigError(f"kind must be blobs, moons or patches, got {self.kind!r}")
        for name in ("n_train", "n_test", "dim", "height", "width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kind == "moons" and self.classes != 2:
            raise ConfigError("classes must be 2 for moons data")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be finite and positive, got {self.sigma}")
        if not math.isfinite(self.separation):
            raise ConfigError(f"separation must be finite, got {self.separation}")
        if min(entropy_tuple(self.seed)) < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _blob_centers(rng, classes, dim, sigma, separation):
    centers = rng.normal(size=(classes, dim))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    dmin = dists[~np.eye(classes, dtype=bool)].min()
    target = separation * sigma
    if dmin < target:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            centers *= target / max(dmin, 1e-9)
        if not np.isfinite(centers).all():
            raise ConfigError(f"data.synthetic.separation = {separation} with "
                              f"data.synthetic.sigma = {sigma} overflows the class centers")
    return centers


_BLOCK_VALUES = 1 << 15  # float64 values per block of rows the data stage writes: 256 KB


def _blocks(n: int, width: int):
    """The row slices of ``n`` rows of ``width`` values, in order, in blocks
    of ``_BLOCK_VALUES`` values (one row at least), made as they are walked."""
    step = max(1, _BLOCK_VALUES // width)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _fill(x, means, sigma, rng):
    """Write ``means + sigma * z`` into ``x``, one block of rows or a column
    slice of one, with z drawn row-major from ``rng``; over the blocks of a
    set in order, that is the bits of one full-size draw and sum. A value
    that overflows is a ConfigError naming ``sigma``."""
    try:
        with np.errstate(over="raise"):
            z = rng.normal(size=x.shape)
            z *= sigma
            np.add(means, z, out=x)
    except FloatingPointError:
        raise ConfigError(f"data.synthetic.sigma = {sigma} overflows the features") from None


def _moons(x, y, rng):
    """Write the noise-free moon of each label of ``y`` into ``x``, one
    block of rows of two columns: an angle t drawn uniformly from [0, pi)
    gives (cos t, sin t) on the upper moon (class 0) and (1 - cos t,
    0.5 - sin t) on the lower one (class 1). Cos and sin run over the
    block's angles into contiguous temporaries. No value moves: a uniform
    stream does not depend on how its draw is split, and numpy's cos and sin
    gave every block of 1 to 65536 values the bits of one full-size call,
    on its AVX-512, AVX2 and baseline x86-64 kernels alike."""
    t = rng.uniform(0.0, np.pi, size=len(y))
    x[:, 0] = np.cos(t)
    x[:, 1] = np.sin(t)
    np.subtract((1.0, 0.5), x, out=x, where=y[:, None] == 1)


def _generated(labels, c: int, d: int, passes, path) -> Dataset:
    """The generated set whose given and true labels are ``labels``, made
    read-only, and whose (N, ``d``) features ``passes`` write in turn: a
    pass is called on each row block (``_blocks``) in order, as
    ``fill(block, rows)``, and writes its values of the rows ``rows`` into
    ``block``. Without ``path`` the block is a view of the feature array.
    With it, the set is written to the NLD1 file ``path`` in the bytes of
    ``save_dataset``: header and labels first, then each block, zeroed in
    the first pass and read back from the file after it, filled and written
    again; the features are the file's ``FeatureFile``."""
    labels.flags.writeable = False
    n = len(labels)
    if path is None:
        x = np.empty((n, d))
        for fill in passes:
            for rows in _blocks(n, d):
                fill(x[rows], rows)
        return Dataset(x, labels, c, labels)
    dataset = Dataset(FeatureFile(path, n, d), labels, c, labels)
    with _Writer(path) as file:
        end = file.put(0, _nld_head(n, d, c, dataset.k, True)) + n * d * 8
        for _ in range(2):  # the given labels, then the same true labels
            end += file.put(end, np.ascontiguousarray(labels, "<u4"))
        with dataset.features as features:
            for k, fill in enumerate(passes):
                for rows in _blocks(n, d):
                    block = features[rows] if k else np.zeros((rows.stop - rows.start, d))
                    fill(block, rows)
                    file.put(_FEATURES_AT + rows.start * d * 8,
                             np.ascontiguousarray(block, "<f8"))
                    del block  # else it would stay alive through the next block's read
    return dataset


def _move_rows(x, rows):
    """Move the rows ``rows`` of ``x`` (sorted indices, the k-th at least
    k) in order to the front of ``x``, one block at a time; returns that
    front. No block overwrites a row a later block reads."""
    for block in _blocks(len(rows), x.shape[1]):
        x[block] = x[rows[block]]
    return x[:len(rows)]


def generate_synthetic(spec: SyntheticSpec, test_path=None) -> tuple[Dataset, Dataset]:
    """Deterministically generate (train, test) datasets with true labels,
    which go round-robin over the classes, so they are balanced within 1,
    and are each set's given labels too: one read-only array. Patches are
    one template image per class plus pixel noise. ``_fill`` writes each
    block (``_generated``) from its rows' class means, or for moons from the
    points ``_moons`` wrote first; with ``test_path`` the test set streams
    into that NLD1 file and its features are the file's."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "blobs":
        table = _blob_centers(rng, spec.classes, spec.dim, spec.sigma, spec.separation)
    elif spec.kind == "patches":
        table = rng.normal(size=(spec.classes, spec.height * spec.width))

    def make(n, path=None):
        y = np.arange(n, dtype=np.int64) % spec.classes
        if spec.kind == "moons":  # every angle is drawn before any noise
            passes = [lambda block, rows: _moons(block, y[rows], rng),
                      lambda block, rows: _fill(block, block, spec.sigma, rng)]
            return _generated(y, spec.classes, 2, passes, path)
        return _generated(y, spec.classes, table.shape[1], [
            lambda block, rows: _fill(block, table[y[rows]], spec.sigma, rng)], path)

    return make(spec.n_train), make(spec.n_test, test_path)


def generate_synthetic_multi(spec: SyntheticSpec, class_counts,
                             test_path=None) -> tuple[Dataset, Dataset]:
    """Multi-attribute blobs: independent labels, one feature block of
    ``spec.dim`` columns per attribute; ``kind`` and ``classes`` are not read.
    ``class_counts`` (one or more, each >= 2) come from ``AttributeSpec``.
    All labels are drawn, then ``_fill`` writes each block (``_generated``),
    one attribute's columns from its centers per pass; with ``test_path``
    the test set streams into that NLD1 file as in ``generate_synthetic``.
    Each set's labels are one read-only array, its given and true labels."""
    rng = np.random.default_rng(spec.seed)
    centers = [_blob_centers(rng, c_k, spec.dim, spec.sigma, spec.separation)
               for c_k in class_counts]

    def make(n, path=None):
        labels = np.stack([rng.integers(0, c_k, size=n, dtype=np.int64)
                           for c_k in class_counts], axis=1)
        passes = [lambda block, rows, k=k: _fill(block[:, k * spec.dim:(k + 1) * spec.dim],
                                                 centers[k][labels[rows, k]], spec.sigma, rng)
                  for k in range(len(centers))]
        return _generated(labels, max(class_counts), len(centers) * spec.dim, passes, path)

    return make(spec.n_train), make(spec.n_test, test_path)


# ---------------------------------------------------------------------------
# Written files: NLD1 datasets here, NAM snapshots and text artifacts in the harness


class _Writer:
    """Writes a file by positional writes (``os.pwrite``) and closes
    it on every path; a file that an exception leaves unfinished is removed.
    Opening truncates the file; ``put`` writes a buffer at any offset, so a
    file may be laid out first and filled after. A file the system will not
    open or a write it refuses (a full disk, say) is a ConfigError naming
    the file."""

    def __init__(self, path):
        self.path = path
        try:
            self.fh = open(path, "wb", buffering=0)
        except OSError as exc:
            raise self._refused(exc) from exc

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        self.fh.close()
        if exc is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.path)

    def _refused(self, exc: OSError) -> ConfigError:
        return ConfigError(f"cannot write {self.path}: {exc.strerror or exc}")

    def put(self, offset: int, data) -> int:
        """Write ``data``, bytes or a C-ordered array in its disk dtype, at
        byte ``offset``; returns the number of bytes written."""
        buffer, done = np.frombuffer(data, np.uint8), 0
        try:
            while done < buffer.nbytes:  # one call writes at most about 2 GB
                done += os.pwrite(self.fh.fileno(), buffer[done:], offset + done)
        except OSError as exc:
            raise self._refused(exc) from exc
        return done


def _write(path, head: bytes, arrays):
    """Write ``head`` (the magic, the u32 version and the rest of the
    header), then the buffer of each (array, disk dtype) pair straight to
    the file by ``_Writer``, so nothing holds a copy of the whole file."""
    with _Writer(path) as file:
        at = file.put(0, head)
        for array, dtype in arrays:
            at += file.put(at, np.ascontiguousarray(array, dtype=dtype))


def _write_text(path, text: str):
    """Write ``text``, a whole text file built in memory, as UTF-8."""
    _write(path, text.encode(), ())


class _Reader:
    """Reads a binary file by positional reads and closes it on every path.
    Opening checks the magic and the u32 version. ``array`` reads on from
    where the last read ended; ``rows`` reads the rows a caller names of a
    float64 block, so threads may read one file at once. Each read is
    checked against the bytes left (from ``os.fstat``) before anything is
    allocated, then lands by ``os.preadv`` in an array that owns its
    memory. A file that cannot be read, a read past the end or a short read
    (naming the offset) and trailing bytes are ``FormatError``s."""

    def __init__(self, path, kind: str, magic: bytes, version: int):
        self.kind, self.offset = kind, 0
        try:
            self.fh = open(path, "rb", buffering=0)
        except OSError as exc:
            raise FormatError(f"cannot read {kind} file {path}: {exc}") from exc
        try:
            self.size = os.fstat(self.fh.fileno()).st_size
            found = self.take(len(magic), "magic")
            if found != magic:
                raise FormatError(f"bad magic {found!r} at offset 0 (expected {magic!r})")
            (found,) = self.unpack("<I", "version")
            if found != version:
                raise FormatError(f"unsupported {kind} version {found} at offset 4")
        except BaseException:
            self.fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def _claim(self, nbytes: int, offset: int, what: str):
        if nbytes > self.size - offset:
            raise FormatError(f"truncated {self.kind} file: needed {nbytes} bytes for {what} "
                              f"at offset {offset}, have {max(self.size - offset, 0)}")

    def _read(self, count: int, disk: str, offset: int, what: str) -> np.ndarray:
        """``count`` values of dtype ``disk`` from byte ``offset``, in a fresh array."""
        self._claim(count * np.dtype(disk).itemsize, offset, what)
        out = np.empty(count, dtype=disk)
        buffer, done = memoryview(out).cast("B"), 0
        while done < out.nbytes:  # one call reads at most about 2 GB
            got = os.preadv(self.fh.fileno(), [buffer[done:]], offset + done)
            if not got:
                raise FormatError(f"short read of {what} at offset {offset}")
            done += got
        return out

    def array(self, count: int, disk: str, keep, what: str) -> np.ndarray:
        """``count`` values of dtype ``disk``, converted where ``keep`` differs."""
        out = self._read(count, disk, self.offset, what)
        self.offset += out.nbytes
        return out.astype(keep, copy=False)

    def skip(self, nbytes: int, what: str):
        self._claim(nbytes, self.offset, what)
        self.offset += nbytes

    def rows(self, at: int, start: int, stop: int, d: int) -> np.ndarray:
        """Rows ``start:stop`` of the (N, ``d``) little-endian float64
        features at byte ``at``, as a fresh float64 array; a non-finite value
        is the ``FormatError`` that ``load_dataset`` raises for it."""
        x = self._read((stop - start) * d, "<f8", at + start * d * 8, "features")
        x = x.astype(np.float64, copy=False).reshape(stop - start, d)
        if not _all_finite(x):
            raise FormatError(f"{_INVALID}{_NON_FINITE}")
        return x

    def take(self, count: int, what: str) -> bytes:
        return self.array(count, "u1", np.uint8, what).tobytes()

    def unpack(self, layout: str, what: str) -> tuple:
        return struct.unpack(layout, self.take(struct.calcsize(layout), what))

    def done(self):
        if self.offset != self.size:
            raise FormatError(f"{self.size - self.offset} unexpected trailing bytes "
                              f"at offset {self.offset}")


_FEATURES_AT = len(NLD1_MAGIC) + _HEADER.size  # the byte where NLD1 features start


def _nld_head(n: int, d: int, c: int, k: int, has_true: bool) -> bytes:
    return NLD1_MAGIC + _HEADER.pack(NLD1_VERSION, n, d, c, k, has_true)


def _open_nld(path) -> tuple[_Reader, tuple]:
    """An open ``_Reader`` of the NLD1 file ``path`` past its header, and
    the header's (N, D, C, K, has_true_labels)."""
    reader = _Reader(path, "dataset", NLD1_MAGIC, NLD1_VERSION)
    try:
        header = reader.unpack("<IIIIB", "header")
        if header[1] == 0:
            raise FormatError("zero feature columns at offset 12")
    except BaseException:
        reader.__exit__()
        raise
    return reader, header


class FeatureFile:
    """The (N, D) features of the NLD1 file ``path``, read a block of rows
    at a time. A ``with`` block opens the file, whose header must still
    declare N rows of D features; inside it ``self[a:b]`` reads rows a..b
    by ``_Reader.rows`` into a fresh array, checked finite. The reads are
    positional, so the evaluator's chunk threads read at once."""

    def __init__(self, path, n: int, d: int):
        self.path, self.shape, self._reader = path, (n, d), None

    def __enter__(self):
        reader, (n, d, *_) = _open_nld(self.path)
        if (n, d) != self.shape:
            reader.__exit__()
            raise FormatError(f"dataset file {self.path} now holds {n} rows of {d} "
                              f"features, not {self.shape[0]} of {self.shape[1]}")
        self._reader = reader
        return self

    def __exit__(self, *exc_info):
        self._reader.__exit__()
        self._reader = None

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        return self._reader.rows(_FEATURES_AT, start, stop, self.shape[1])


def save_dataset(dataset: Dataset, path):
    """Write the little-endian NLD1 binary layout through ``_write``.

    magic "NLD1"; u32 version; u32 N; u32 D; u32 C; u32 K (0 = single
    label); u8 has_true_labels; N*D float64 features row-major; N (or N*K)
    u32 given labels; the same block of true labels when flagged.
    """
    if dataset.d == 0:
        raise DataError("refusing to save a dataset with zero feature columns")
    labels = [y for y in (dataset.given_labels, dataset.true_labels) if y is not None]
    head = _nld_head(dataset.n, dataset.d, dataset.c, dataset.k, dataset.true_labels is not None)
    _write(path, head, [(dataset.features, "<f8")] + [(y, "<u4") for y in labels])


def load_dataset(path, features: bool = True) -> Dataset:
    """Read an NLD1 file; any structural problem reports its byte offset.
    With ``features=False`` the sizes and labels are read and checked, but
    the features are not read: they are the file's ``FeatureFile``."""
    reader, (n, d, c, k, has_true) = _open_nld(path)
    with reader:
        shape = (n, k) if k else (n,)
        if features:
            x = reader.array(n * d, "<f8", np.float64, "features").reshape(n, d)
        else:
            reader.skip(n * d * 8, "features")
            x = FeatureFile(path, n, d)
        given = reader.array(math.prod(shape), "<u4", np.int64, "given labels").reshape(shape)
        true = None
        if has_true:
            true = reader.array(math.prod(shape), "<u4", np.int64, "true labels").reshape(shape)
        reader.done()
    try:
        return Dataset(x, given, int(c), true)
    except DataError as exc:
        raise FormatError(f"{_INVALID}{exc}") from exc
