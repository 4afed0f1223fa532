"""Datasets, synthetic generators, label-noise injection, and the NLD1 format.

All generation and injection is a pure function of (inputs, seed). The
uniform injector flips an exact rounded fraction of samples, chosen
without replacement, and a flipped sample never keeps its true label,
so the noise level is the exact fraction of mislabeled samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

NLD1_MAGIC = b"NLD1"
NLD1_VERSION = 1
_HEADER = struct.Struct("<IIIIIB")  # version, N, D, C, K, has_true_labels


@dataclass
class Dataset:
    """Features plus given labels, optional hidden true labels.

    ``given_labels`` is (N,) for single-label data or (N, K) for
    multi-attribute data; ``c`` is the exclusive upper bound on every
    label value (the max class count in multi-attribute mode).
    """

    features: np.ndarray
    given_labels: np.ndarray
    c: int
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.given_labels = np.ascontiguousarray(self.given_labels, dtype=np.int64)
        if self.true_labels is not None:
            self.true_labels = np.ascontiguousarray(self.true_labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D (N, D), got shape {self.features.shape}")
        if self.given_labels.ndim not in (1, 2):
            raise DataError(f"labels must be 1-D or 2-D, got shape {self.given_labels.shape}")
        if self.given_labels.shape[0] != self.features.shape[0]:
            raise DataError("label count differs from sample count")
        if self.c < 2:
            raise DataError(f"need at least 2 classes, got {self.c}")
        self._check_bounds(self.given_labels, "given labels")
        if self.true_labels is not None:
            if self.true_labels.shape != self.given_labels.shape:
                raise DataError("true labels must match the given-label shape")
            self._check_bounds(self.true_labels, "true labels")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")

    def _check_bounds(self, labels, what):
        if labels.size and (labels.min() < 0 or labels.max() >= self.c):
            raise DataError(f"{what} must lie in [0, {self.c})")

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
    """How to corrupt given labels: mode, level, and seed.

    Modes: "uniform" (exact-count flips, uniform wrong target), "matrix"
    (sample each given label from the column of a column-stochastic
    transition matrix indexed by the true class), "per_class" (uniform
    flips at a per-class rate).
    """

    rho: float = 0.0
    mode: str = "uniform"
    matrix: np.ndarray | None = None
    per_class: tuple[float, ...] | None = None
    seed: int | tuple = 0

    def __post_init__(self):
        if self.mode not in ("uniform", "matrix", "per_class"):
            raise ConfigError(f"unknown noise mode {self.mode!r}")
        if self.mode == "uniform" and not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if self.mode == "matrix":
            if self.matrix is None:
                raise ConfigError("matrix mode needs a transition matrix")
            t = np.asarray(self.matrix, dtype=np.float64)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ConfigError(f"transition matrix must be square, got {t.shape}")
            if (t < 0).any() or not np.allclose(t.sum(axis=0), 1.0, atol=1e-9):
                raise ConfigError("transition matrix columns must be stochastic")
            self.matrix = t
        if self.mode == "per_class":
            if self.per_class is None:
                raise ConfigError("per_class mode needs per-class rates")
            if any(not 0.0 <= r < 1.0 for r in self.per_class):
                raise ConfigError("per-class rates must lie in [0, 1)")


def noisy_labels(true_labels, c: int, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt one label column; returns (given labels, sorted flip indices)."""
    true = np.ascontiguousarray(true_labels, dtype=np.int64)
    if true.size and (true.min() < 0 or true.max() >= c):
        raise DataError(f"true labels must lie in [0, {c})")
    rng = np.random.default_rng(spec.seed)
    n = true.shape[0]
    given = true.copy()

    if spec.mode == "uniform":
        n_flip = int(round(spec.rho * n))
        chosen = rng.permutation(n)[:n_flip]
        # true + uniform shift in [1, c) mod c: uniform over the other classes
        offsets = rng.integers(1, c, size=n_flip)
        given[chosen] = (true[chosen] + offsets) % c
        return given, np.sort(chosen)

    if spec.mode == "per_class":
        rates = spec.per_class
        if len(rates) != c:
            raise ConfigError(f"need {c} per-class rates, got {len(rates)}")
        flipped = []
        for cls in range(c):
            cls_idx = np.flatnonzero(true == cls)
            n_flip = int(round(rates[cls] * cls_idx.size))
            chosen = cls_idx[rng.permutation(cls_idx.size)[:n_flip]]
            offsets = rng.integers(1, c, size=n_flip)
            given[chosen] = (true[chosen] + offsets) % c
            flipped.append(chosen)
        return given, np.sort(np.concatenate(flipped)) if flipped else np.zeros(0, dtype=np.int64)

    t = spec.matrix
    if t.shape[0] != c:
        raise ConfigError(f"transition matrix is {t.shape[0]}x{t.shape[0]}, data has {c} classes")
    cdf_by_true = np.cumsum(t, axis=0).T  # row i: cdf of observed labels given true i
    u = rng.random(n)
    given = np.minimum((u[:, None] >= cdf_by_true[true]).sum(axis=1), c - 1).astype(np.int64)
    return given, np.flatnonzero(given != true)


def inject_noise(dataset: Dataset, spec: NoiseSpec) -> tuple[Dataset, np.ndarray]:
    """Corrupt a clean single-label dataset; true labels are preserved."""
    if dataset.k != 0:
        raise DataError("inject_noise handles single-label data; use inject_noise_multi")
    noisy, (flips,) = inject_noise_multi(dataset, [spec], [dataset.c])
    return noisy, flips


def inject_noise_multi(dataset: Dataset, specs, class_counts) -> tuple[Dataset, list[np.ndarray]]:
    """Corrupt each label column with its own noise spec and class count;
    single-label data is one column. Returns one flip index array per column."""
    if dataset.true_labels is None:
        raise DataError("noise injection needs a dataset with true labels")
    given = dataset.true_labels.copy()
    columns = given.T if dataset.k else [given]
    if len(specs) != len(columns) or len(class_counts) != len(columns):
        raise ConfigError("one noise spec and class count per attribute required")
    flip_lists = []
    for column, c, spec in zip(columns, class_counts, specs):
        column[...], flips = noisy_labels(column, c, spec)
        flip_lists.append(flips)
    noisy = Dataset(dataset.features, given, dataset.c, dataset.true_labels.copy())
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
        if self.n_train < 1:
            raise ConfigError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_test < 1:
            raise ConfigError(f"n_test must be >= 1, got {self.n_test}")
        if self.kind == "moons" and self.classes != 2:
            raise ConfigError("classes must be 2 for moons data")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")


def _blob_centers(rng, classes, dim, sigma, separation):
    centers = rng.normal(size=(classes, dim))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2))
    dmin = dists[~np.eye(classes, dtype=bool)].min()
    target = separation * sigma
    if dmin < target:
        centers *= target / max(dmin, 1e-9)
    return centers


def _round_robin_labels(n, classes):
    # balanced within +-1 by construction
    return np.arange(n, dtype=np.int64) % classes


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministically generate (train, test) datasets with true labels."""
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "blobs":
        centers = _blob_centers(rng, spec.classes, spec.dim, spec.sigma, spec.separation)

        def make(n):
            y = _round_robin_labels(n, spec.classes)
            x = centers[y] + spec.sigma * rng.normal(size=(n, spec.dim))
            return Dataset(x, y.copy(), spec.classes, y.copy())

        return make(spec.n_train), make(spec.n_test)

    if spec.kind == "moons":

        def make(n):
            y = _round_robin_labels(n, 2)
            t = rng.uniform(0.0, np.pi, size=n)
            upper = np.stack([np.cos(t), np.sin(t)], axis=1)
            lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
            x = np.where(y[:, None] == 1, lower, upper)
            x = x + spec.sigma * rng.normal(size=(n, 2))
            return Dataset(x, y.copy(), 2, y.copy())

        return make(spec.n_train), make(spec.n_test)

    # patches: one template image per class plus pixel noise
    templates = rng.normal(size=(spec.classes, spec.height, spec.width))

    def make(n):
        y = _round_robin_labels(n, spec.classes)
        x = templates[y] + spec.sigma * rng.normal(size=(n, spec.height, spec.width))
        return Dataset(x.reshape(n, -1), y.copy(), spec.classes, y.copy())

    return make(spec.n_train), make(spec.n_test)


def generate_synthetic_multi(class_counts, dim: int, sigma: float, separation: float,
                             n_train: int, n_test: int, seed) -> tuple[Dataset, Dataset]:
    """Multi-attribute blobs: independent labels, one feature block per attribute."""
    if len(class_counts) < 1 or any(c < 2 for c in class_counts):
        raise ConfigError(f"bad attribute class counts {class_counts}")
    rng = np.random.default_rng(seed)
    centers = [_blob_centers(rng, c_k, dim, sigma, separation) for c_k in class_counts]
    c_max = max(class_counts)

    def make(n):
        labels = np.stack(
            [rng.integers(0, c_k, size=n) for c_k in class_counts], axis=1).astype(np.int64)
        blocks = [centers[k][labels[:, k]] + sigma * rng.normal(size=(n, dim))
                  for k in range(len(class_counts))]
        return Dataset(np.concatenate(blocks, axis=1), labels.copy(), c_max, labels.copy())

    return make(n_train), make(n_test)


# ---------------------------------------------------------------------------
# NLD1 on-disk format


def save_dataset(dataset: Dataset, path):
    """Write the little-endian NLD1 binary layout.

    magic "NLD1"; u32 version; u32 N; u32 D; u32 C; u32 K (0 = single
    label); u8 has_true_labels; N*D float64 features row-major; N (or N*K)
    u32 given labels; the same block of true labels when flagged.
    """
    if dataset.d == 0:
        raise DataError("refusing to save a dataset with zero feature columns")
    has_true = dataset.true_labels is not None
    blob = bytearray()
    blob += NLD1_MAGIC
    blob += _HEADER.pack(NLD1_VERSION, dataset.n, dataset.d, dataset.c,
                         dataset.k, 1 if has_true else 0)
    blob += np.ascontiguousarray(dataset.features, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(dataset.given_labels, dtype="<u4").tobytes()
    if has_true:
        blob += np.ascontiguousarray(dataset.true_labels, dtype="<u4").tobytes()
    Path(path).write_bytes(bytes(blob))


class _Reader:
    """Reads a binary file front to back, for the NLD1 and NAM loaders. A
    file that cannot be read, a read past the end (naming its offset) and
    trailing bytes are all ``FormatError``s."""

    def __init__(self, path, kind: str):
        self.kind = kind
        try:
            self.raw = Path(path).read_bytes()
        except OSError as exc:
            raise FormatError(f"cannot read {kind} file {path}: {exc}") from exc
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        have = len(self.raw) - self.offset
        if count > have:
            raise FormatError(f"truncated {self.kind} file: needed {count} bytes for {what} "
                              f"at offset {self.offset}, have {have}")
        self.offset += count
        return self.raw[self.offset - count:self.offset]

    def done(self):
        if self.offset != len(self.raw):
            raise FormatError(f"{len(self.raw) - self.offset} unexpected trailing bytes "
                              f"at offset {self.offset}")


def load_dataset(path) -> Dataset:
    """Read an NLD1 file; any structural problem reports its byte offset."""
    reader = _Reader(path, "dataset")
    magic = reader.take(4, "magic")
    if magic != NLD1_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0 (expected {NLD1_MAGIC!r})")
    version, n, d, c, k, has_true = _HEADER.unpack(reader.take(_HEADER.size, "header"))
    if version != NLD1_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    if d == 0:
        raise FormatError("zero feature columns at offset 12")
    features = np.frombuffer(reader.take(n * d * 8, "features"), dtype="<f8").reshape(n, d)
    label_count = n * k if k else n
    given = np.frombuffer(reader.take(label_count * 4, "given labels"), dtype="<u4")
    true = None
    if has_true:
        true = np.frombuffer(reader.take(label_count * 4, "true labels"), dtype="<u4")
    reader.done()
    shape = (n, k) if k else (n,)
    given = given.astype(np.int64).reshape(shape)
    if true is not None:
        true = true.astype(np.int64).reshape(shape)
    try:
        return Dataset(features.astype(np.float64), given, int(c), true)
    except DataError as exc:
        raise FormatError(f"invalid dataset content: {exc}") from exc
