"""Datasets, noise injection, synthetic generators, and the NLD1 format."""

import numpy as np
import pytest

from noiseattn import (ConfigError, DataError, Dataset, FormatError, NoiseSpec,
                       SyntheticSpec, empirical_transition, generate_synthetic,
                       generate_synthetic_multi, inject_noise, load_dataset, save_dataset)
from noiseattn import data
from noiseattn.data import load_noise_matrix
from oracles import synthetic_multi_one_shot, synthetic_one_shot, uniform_flip_matrix
from peaks import traced_peak


class TestFlipMatrix:
    def test_zero_noise_is_identity(self):
        np.testing.assert_array_equal(uniform_flip_matrix(4, 0.0), np.eye(4))

    def test_hand_case(self):
        m = uniform_flip_matrix(3, 0.3)
        np.testing.assert_allclose(np.diag(m), 0.7)
        off = m[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.15)

    def test_columns_sum_to_one_exactly(self):
        for c, rho in ((2, 0.1), (5, 0.45), (10, 0.7)):
            m = uniform_flip_matrix(c, rho)
            np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-15)

    def test_degenerate_class_count(self):
        with pytest.raises(ConfigError):
            uniform_flip_matrix(1, 0.2)


def uniform(rho, seed):
    return NoiseSpec(mode="uniform", rho=(rho,), seed=seed)


def clean_dataset(n=100, c=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, c, size=n)
    return Dataset(rng.normal(size=(n, d)), y.copy(), c, y.copy())


class TestInjectNoise:
    def test_zero_rho_is_identity_with_empty_record(self):
        ds = clean_dataset()
        noisy, (flips,) = inject_noise(ds, uniform(0.0, 1), [ds.c])
        np.testing.assert_array_equal(noisy.given_labels, ds.true_labels)
        assert flips.size == 0

    def test_exact_flip_count_and_all_flipped_differ(self):
        ds = clean_dataset(n=1000, c=4, seed=2)
        noisy, (flips,) = inject_noise(ds, uniform(0.5, 3), [ds.c])
        assert flips.size == 500
        assert (noisy.given_labels[flips] != noisy.true_labels[flips]).all()

    def test_flip_record_is_exact(self):
        ds = clean_dataset(n=400, c=3, seed=4)
        noisy, (flips,) = inject_noise(ds, uniform(0.25, 5), [ds.c])
        differs = np.flatnonzero(noisy.given_labels != noisy.true_labels)
        np.testing.assert_array_equal(np.sort(flips), differs)

    def test_empirical_transition_matches_flip_matrix(self):
        # law of large numbers at a frozen seed
        ds = clean_dataset(n=30_000, c=3, seed=6)
        noisy, _ = inject_noise(ds, uniform(0.3, 7), [ds.c])
        emp = empirical_transition(noisy.true_labels, noisy.given_labels, 3)
        target = uniform_flip_matrix(3, 0.3)
        assert np.abs(emp - target).max() <= 0.01

    def test_matrix_mode_follows_transition_columns(self, tmp_path):
        t = np.array([[0.6, 0.3, 0.0],
                      [0.4, 0.5, 0.2],
                      [0.0, 0.2, 0.8]])
        np.savetxt(tmp_path / "t.csv", t, delimiter=",")
        ds = clean_dataset(n=30_000, c=3, seed=8)
        noisy, (flips,) = inject_noise(
            ds, NoiseSpec(mode="matrix", matrix_path=str(tmp_path / "t.csv"), seed=9), [3])
        emp = empirical_transition(noisy.true_labels, noisy.given_labels, 3)
        assert np.abs(emp - t).max() <= 0.015
        differs = np.flatnonzero(noisy.given_labels != noisy.true_labels)
        np.testing.assert_array_equal(flips, differs)

    def test_per_class_mode_counts(self):
        ds = clean_dataset(n=3000, c=3, seed=10)
        rates = (0.0, 0.2, 0.5)
        noisy, (flips,) = inject_noise(
            ds, NoiseSpec(mode="per_class", per_class=rates, seed=11), [3])
        for cls, rate in enumerate(rates):
            cls_idx = np.flatnonzero(ds.true_labels == cls)
            flipped = np.intersect1d(cls_idx, flips)
            assert flipped.size == int(round(rate * cls_idx.size))

    def test_missing_true_labels_rejected(self):
        ds = clean_dataset()
        bare = Dataset(ds.features, ds.given_labels, ds.c, None)
        with pytest.raises(DataError):
            inject_noise(bare, uniform(0.1, 0), [ds.c])

    def test_statistical_fidelity_per_column(self):
        # empirical column L1 distance <= 3 / sqrt(N / C) on every tested seed
        c, n = 4, 8000
        bound = 3.0 / np.sqrt(n / c)
        for seed in range(15):
            ds = clean_dataset(n=n, c=c, seed=seed)
            noisy, _ = inject_noise(ds, uniform(0.4, seed + 100), [ds.c])
            emp = empirical_transition(noisy.true_labels, noisy.given_labels, c)
            l1 = np.abs(emp - uniform_flip_matrix(c, 0.4)).sum(axis=0)
            assert l1.max() <= bound

    def test_injected_labels_are_still_checked(self):
        ds = clean_dataset(n=200, c=3, seed=9)
        with pytest.raises(DataError, match="given labels must lie in"):
            inject_noise(ds, uniform(0.5, 9), [5])

    def test_injection_is_deterministic(self):
        ds = clean_dataset(n=500, c=5, seed=12)
        a, (fa,) = inject_noise(ds, uniform(0.3, 13), [ds.c])
        b, (fb,) = inject_noise(ds, uniform(0.3, 13), [ds.c])
        np.testing.assert_array_equal(a.given_labels, b.given_labels)
        np.testing.assert_array_equal(fa, fb)


class TestNoiseSpec:
    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "bogus"}, "^mode must be none, uniform, matrix or per_class"),
        ({"mode": "uniform", "rho": (0.1, 1.5)}, r"^rho must lie in \[0, 1\), got 1.5$"),
        ({"mode": "uniform", "rho": (-0.1,)}, r"^rho must lie in \[0, 1\), got -0.1$"),
        ({"mode": "per_class"}, "^per_class is needed in per_class mode$"),
        ({"mode": "per_class", "per_class": (0.1, 1.0)}, r"^per_class .* got 1.0$"),
        ({"mode": "matrix"}, "^matrix_path is needed in matrix mode$"),
    ])
    def test_data_free_checks_name_their_key(self, kwargs, message):
        """Each message starts with the field it checks; the config reader
        prefixes it with ``noise.``."""
        with pytest.raises(ConfigError, match=message):
            NoiseSpec(**kwargs)

    def test_mode_none_checks_nothing_else(self):
        assert NoiseSpec(rho=(5.0, 6.0, 7.0)).mode == "none"

    def test_rho_count(self):
        assert NoiseSpec(mode="uniform", rho=(0.2,)).rhos(3) == (0.2, 0.2, 0.2)
        assert NoiseSpec(mode="uniform", rho=(0.2, 0.4)).rhos(2) == (0.2, 0.4)
        with pytest.raises(ConfigError, match="^noise.rho needs 1 value, got 2$"):
            NoiseSpec(mode="uniform", rho=(0.2, 0.4)).rhos(1)
        with pytest.raises(ConfigError, match="^noise.rho needs 1 or 3 values, got 2$"):
            NoiseSpec(mode="uniform", rho=(0.2, 0.4)).rhos(3)

    @pytest.mark.parametrize("text, message", [
        ("0.5,0.5\n0.5,0.5\n0.0,0.0\n", "must be square"),
        ("0.9,0.5\n0.2,0.5\n", "columns must be stochastic"),
        ("1.2,0.0\n-0.2,1.0\n", "columns must be stochastic"),
        ("a,b\nc,d\n", "could not read noise matrix"),
        ("", "^noise matrix .*t.csv holds no values$"),
        ("# a comment only\n", "^noise matrix .*t.csv holds no values$"),
    ])
    def test_matrix_file_checks(self, tmp_path, text, message):
        (tmp_path / "t.csv").write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_noise_matrix(tmp_path / "t.csv")

    def test_mode_none_injects_nothing(self):
        with pytest.raises(ConfigError, match="nothing to inject"):
            inject_noise(clean_dataset(), NoiseSpec(), [4])

    def test_column_i_draws_from_seed_and_i(self):
        ds = clean_dataset(n=200, c=4, seed=14)
        _, (flips,) = inject_noise(ds, uniform(0.3, 15), [4])
        rng = np.random.default_rng((15, 0))
        np.testing.assert_array_equal(flips, np.sort(rng.permutation(200)[:60]))

    def test_class_count_per_column(self):
        with pytest.raises(ConfigError, match="need one class count per label column, got 2 for 1"):
            inject_noise(clean_dataset(), uniform(0.1, 0), [4, 4])


class TestSynthetic:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(kind="blobs", classes=3, dim=2, n_train=80, n_test=20, seed=1)
        a_train, a_test = generate_synthetic(spec)
        b_train, b_test = generate_synthetic(spec)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        np.testing.assert_array_equal(a_train.given_labels, b_train.given_labels)

    def test_blobs_are_nearest_centroid_separable(self):
        # separation 10 sigma puts the midpoint boundary at 5 sigma
        train, _ = generate_synthetic(SyntheticSpec(
            kind="blobs", classes=3, dim=2, sigma=0.5, separation=10.0,
            n_train=1000, n_test=10, seed=2))
        centroids = np.stack([train.features[train.true_labels == c].mean(axis=0)
                              for c in range(3)])
        d = ((train.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert (d.argmin(axis=1) == train.true_labels).mean() == 1.0

    def test_class_counts_balanced_within_one(self):
        for n in (30, 31, 32):
            train, _ = generate_synthetic(SyntheticSpec(
                kind="blobs", classes=3, dim=2, n_train=n, n_test=5, seed=3))
            counts = np.bincount(train.given_labels, minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_center_separation_respects_sigma(self):
        train, _ = generate_synthetic(SyntheticSpec(
            kind="blobs", classes=4, dim=3, sigma=2.0, separation=6.0,
            n_train=4000, n_test=10, seed=4))
        centroids = np.stack([train.features[train.true_labels == c].mean(axis=0)
                              for c in range(4)])
        dists = [np.linalg.norm(centroids[i] - centroids[j])
                 for i in range(4) for j in range(i + 1, 4)]
        assert min(dists) >= 0.9 * 6.0 * 2.0  # sample-mean wobble allowed

    def test_moons_and_patches_generate(self):
        moons, _ = generate_synthetic(SyntheticSpec(
            kind="moons", classes=2, sigma=0.1, n_train=50, n_test=10, seed=5))
        assert moons.d == 2 and moons.c == 2
        patches, _ = generate_synthetic(SyntheticSpec(
            kind="patches", classes=3, height=6, width=6, sigma=0.5,
            n_train=30, n_test=6, seed=6))
        assert patches.d == 36

    def test_multi_blobs_independent_labels(self):
        train, _ = generate_synthetic_multi(
            SyntheticSpec(dim=2, sigma=1.0, separation=6.0, n_train=5000, n_test=10, seed=7),
            [3, 4])
        assert train.k == 2 and train.c == 4
        # independence: joint distribution close to the product of marginals
        joint = np.zeros((3, 4))
        np.add.at(joint, (train.true_labels[:, 0], train.true_labels[:, 1]), 1.0)
        joint /= train.n
        marg0, marg1 = joint.sum(axis=1), joint.sum(axis=0)
        assert np.abs(joint - np.outer(marg0, marg1)).max() <= 0.02

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="unknown")
        with pytest.raises(ConfigError):
            SyntheticSpec(kind="moons", classes=3)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_train=0)


# (kind, feature width); "multi" is three 3-wide attribute blocks.
KINDS = [("blobs", 3), ("moons", 2), ("patches", 6), ("multi", 3)]


def generate_both(kind, **fields):
    """(block-by-block, one-shot) outputs of the generator of ``kind``."""
    if kind == "multi":
        spec = SyntheticSpec(dim=3, **fields)
        return (generate_synthetic_multi(spec, [3, 2, 5]),
                synthetic_multi_one_shot(spec, [3, 2, 5]))
    spec = SyntheticSpec(kind=kind, classes=2 if kind == "moons" else 4, dim=3, height=2,
                         width=3, **fields)
    return generate_synthetic(spec), synthetic_one_shot(spec)


def assert_same_bytes(got, want):
    for ds, ref in zip(got, want):
        assert ds.c == ref.c
        for name in ("features", "given_labels", "true_labels"):
            a, b = getattr(ds, name), getattr(ref, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), name


class TestBlockByBlock:
    """The generators write features one block of rows at a time; the
    one-shot oracles make them whole. Both give the same bytes: a split
    draw gives the same normals, moons draws all angles first, and the sum
    is elementwise."""

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("kind, width", KINDS)
    def test_small_blocks_match_the_one_shot_oracle(self, monkeypatch, kind, width, sigma):
        monkeypatch.setattr(data, "_BLOCK_VALUES", 12)
        rows = 12 // width  # rows per block
        for n in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 2} - {0}):
            for seed in range(3):
                assert_same_bytes(*generate_both(kind, sigma=sigma, n_train=n, n_test=n + 1,
                                                 seed=seed))

    @pytest.mark.parametrize("kind, width", KINDS)
    def test_the_default_block_matches_the_one_shot_oracle(self, kind, width):
        n = 2 * (data._BLOCK_VALUES // width) + 1
        assert_same_bytes(*generate_both(kind, n_train=n, n_test=5, seed=9))


def kept_bytes(datasets) -> int:
    """The bytes the sets hold, each array counted once: a generated set's
    given and true labels are one array."""
    arrays = {id(a): a for ds in datasets for a in (ds.features, ds.given_labels,
                                                    ds.true_labels)}
    return sum(a.nbytes for a in arrays.values())


class TestGenerationMemory:
    """Writing features in place keeps a generator's traced peak near what
    it returns. The one-shot generators peaked at 1.78x (multi), 1.89x
    (blobs) and 1.98x (patches) of it; moons, holding every angle and a
    full-size cos and sin, at 1.51x. A block's draw is released before the
    next one is made: held through it, two draws were alive at once and
    moons peaked at 1.22x."""

    def test_multi_peaks_near_what_it_returns(self):
        spec = SyntheticSpec(dim=8, n_train=20_000, n_test=100_000, seed=3)
        out, peak = traced_peak(lambda: generate_synthetic_multi(spec, [3, 4, 6]))
        assert kept_bytes(out) == 25_920_000
        assert peak <= 1.1 * kept_bytes(out)

    def test_blobs_peak_near_what_they_return(self):
        spec = SyntheticSpec(classes=5, dim=24, n_train=100_000, n_test=10, seed=3)
        out, peak = traced_peak(lambda: generate_synthetic(spec))
        assert peak <= 1.1 * kept_bytes(out)

    def test_moons_peak_near_what_they_return(self):
        spec = SyntheticSpec(kind="moons", classes=2, n_train=200_000, n_test=10, seed=3)
        out, peak = traced_peak(lambda: generate_synthetic(spec))
        assert peak <= 1.1 * kept_bytes(out)

    def test_patches_peak_within_one_block_of_what_they_return(self):
        """A block holds its draw and its means, _BLOCK_VALUES floats each."""
        spec = SyntheticSpec(kind="patches", classes=4, height=12, width=12,
                             n_train=20_000, n_test=10, seed=3)
        out, peak = traced_peak(lambda: generate_synthetic(spec))
        assert peak <= kept_bytes(out) + 2 * 8 * data._BLOCK_VALUES


# (kind, feature width, class counts of a multi-attribute kind)
STREAMED = [("blobs", 3, None), ("moons", 2, None), ("patches", 6, None),
            *[(f"multi{k}", 3 * k, [3, 2, 5, 4][:k]) for k in range(1, 5)]]


def generator(kind, counts, **fields):
    """The generator of ``kind``, as a function of the test set's path."""
    if counts:
        spec = SyntheticSpec(**{"dim": 3, **fields})
        return lambda path=None: generate_synthetic_multi(spec, counts, path)
    spec = SyntheticSpec(**{"kind": kind, "classes": 2 if kind == "moons" else 4, "dim": 3,
                            "height": 2, "width": 3, **fields})
    return lambda path=None: generate_synthetic(spec, path)


class TestStreamedTestSet:
    """A test set generated with a path is written to that NLD1 file block
    by block, each pass after the first reading its blocks back, and is
    returned with the file's ``FeatureFile``. The file holds the bytes
    ``save_dataset`` writes of the set generated in memory, at every block
    boundary, and the training set is the in-memory one."""

    def check(self, tmp_path, kind, width, counts, n, seed):
        make = generator(kind, counts, n_train=n + 2, n_test=n, seed=seed)
        (train, test), (want_train, want_test) = make(tmp_path / "t.nld"), make()
        save_dataset(want_test, tmp_path / "want.nld")
        assert (tmp_path / "t.nld").read_bytes() == (tmp_path / "want.nld").read_bytes()
        assert_same_bytes([train], [want_train])
        assert isinstance(test.features, data.FeatureFile)
        assert (test.features.path, test.features.shape) == (tmp_path / "t.nld", (n, width))
        assert test.given_labels is test.true_labels and not test.given_labels.flags.writeable
        assert test.given_labels.tobytes() == want_test.given_labels.tobytes()
        assert (test.c, test.k) == (want_test.c, want_test.k)

    @pytest.mark.parametrize("kind, width, counts", STREAMED)
    def test_small_blocks_write_the_bytes_of_the_in_memory_set(self, tmp_path, monkeypatch,
                                                                kind, width, counts):
        monkeypatch.setattr(data, "_BLOCK_VALUES", 24)
        rows = max(1, 24 // width)  # rows per block
        for n in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 2} - {0}):
            for seed in range(2):
                self.check(tmp_path, kind, width, counts, n, seed)

    @pytest.mark.parametrize("kind, width, counts", STREAMED)
    def test_the_default_block_writes_the_bytes_of_the_in_memory_set(self, tmp_path, kind,
                                                                     width, counts):
        rows = data._BLOCK_VALUES // width
        self.check(tmp_path, kind, width, counts, 2 * rows + 1, seed=9)

    def test_a_12_block_multi_test_set_peaks_near_one_block_plus_labels(self, tmp_path):
        """The stream holds the labels, one block, one attribute's draw and
        its means (a third of a block each) and numpy's index buffers: 1.96
        blocks above the labels. A process's first Generator also imports
        about 0.75 MB of modules. In memory the set's 12 blocks of features
        are held whole."""
        block, rows = 8 * data._BLOCK_VALUES, data._BLOCK_VALUES // 24
        spec = SyntheticSpec(dim=8, n_train=10, n_test=12 * rows, seed=3)
        (_, test), peak = traced_peak(
            lambda: generate_synthetic_multi(spec, [3, 4, 6], tmp_path / "t.nld"))
        assert test.n * test.d * 8 > 11.9 * block
        assert peak <= test.given_labels.nbytes + 3 * block


class TestOneBlockWalk:
    """``_generated`` alone walks a generated set's row blocks: in memory
    and streamed to file, each pass in turn is handed the same blocks of
    ``_BLOCK_VALUES`` values, in row order."""

    @pytest.mark.parametrize("kind, width, counts", STREAMED)
    def test_every_pass_gets_the_same_blocks_on_both_paths(self, tmp_path, monkeypatch,
                                                           kind, width, counts):
        monkeypatch.setattr(data, "_BLOCK_VALUES", 24)
        generated, calls = data._generated, []

        def recorded(labels, c, d, passes, path):
            seen = []
            calls.append(seen)

            def wrap(k, fill):
                def call(block, rows):
                    seen.append((k, rows.start, rows.stop, block.shape))
                    fill(block, rows)
                return call

            return generated(labels, c, d, [wrap(k, fill) for k, fill in enumerate(passes)],
                             path)

        monkeypatch.setattr(data, "_generated", recorded)
        rows = max(1, 24 // width)  # rows per block
        passes = len(counts) if counts else 1 + (kind == "moons")
        for n in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 2} - {0}):
            calls.clear()
            make = generator(kind, counts, n_train=n + 2, n_test=n, seed=0)
            make()
            make(tmp_path / "t.nld")
            in_memory, streamed = calls[:2], calls[2:]  # (train, test) each
            assert streamed == in_memory
            blocks = [(start, min(start + rows, n)) for start in range(0, n, rows)]
            assert in_memory[1] == [(k, a, b, (b - a, width))
                                    for k in range(passes) for a, b in blocks]


class TestStreamedOverflow:
    """A sigma that overflows first in the test set raises the ConfigError of
    the in-memory set and leaves no file, whether it overflows in the first
    pass (blobs) or in a pass that reads its blocks back (the noise of
    moons, the third attribute of multi). Each block is one row; the seeds
    were picked for where the overflow falls, which ``_fill``'s calls show."""

    @pytest.mark.parametrize("kind, seed, calls", [("blobs", 3, 5), ("moons", 0, 4),
                                                   ("multi", 29, 11)])
    def test_the_same_config_error_and_no_file(self, tmp_path, monkeypatch, kind, seed, calls):
        monkeypatch.setattr(data, "_BLOCK_VALUES", 1)
        fill, made = data._fill, []

        def counted(*args):
            made.append(args)
            return fill(*args)

        monkeypatch.setattr(data, "_fill", counted)
        fields = {"sigma": 1e308, "separation": 0.0, "dim": 1, "n_train": 1, "seed": seed}
        if kind == "multi":  # 3 calls for the training set, 3 per pass over the test set
            make = generator(kind, [2, 2, 2], n_test=3, **fields)
        else:  # 1 call for the training set, then 1 per test row
            make = generator(kind, None, n_test=4, classes=2, **fields)
        message = "^data.synthetic.sigma = 1e\\+308 overflows the features$"
        with pytest.raises(ConfigError, match=message):
            make()
        made.clear()
        with pytest.raises(ConfigError, match=message):
            make(tmp_path / "t.nld")
        assert len(made) == calls
        assert list(tmp_path.iterdir()) == []


class TestFiniteFeatures:
    """Features are checked through their sum, with the element-wise check
    only when the sum is not finite: finite values may sum to an infinity."""

    def test_features_whose_sum_overflows_still_load(self):
        x = np.full((4, 3), 1e308)
        x[:, 1] = -1e308
        ds = Dataset(x, [0, 1, 0, 1], 2)
        assert ds.features.tobytes() == x.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_feature_is_rejected(self, bad):
        x = np.zeros((5, 2))
        x[3, 1] = bad
        with pytest.raises(DataError, match="^features contain non-finite values$"):
            Dataset(x, [0, 1, 0, 1, 0], 2)

    def test_an_infinity_hidden_behind_an_overflow_is_rejected(self):
        x = np.full((3, 2), 1e308)
        x[2, 1] = -np.inf
        with pytest.raises(DataError, match="non-finite"):
            Dataset(x, [0, 1, 0], 2)

    def test_the_check_allocates_no_feature_sized_temporary(self):
        """A bool array of the 100000 x 24 features alone would be 2.4 MB."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100_000, 24))
        labels = rng.integers(0, 5, size=100_000)
        ds, peak = traced_peak(lambda: Dataset(x, labels, 5, labels))
        assert ds.features is x
        assert peak < 2**20


class TestNLD1:
    def roundtrip(self, ds, tmp_path, name="ds.nld"):
        path = tmp_path / name
        save_dataset(ds, path)
        return load_dataset(path), path

    def test_round_trip_single_label(self, tmp_path):
        ds = clean_dataset(n=37, c=5, d=4, seed=20)
        back, _ = self.roundtrip(ds, tmp_path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.given_labels, ds.given_labels)
        np.testing.assert_array_equal(back.true_labels, ds.true_labels)
        assert back.c == ds.c and back.k == 0

    def test_round_trip_multi_attribute_and_no_true(self, tmp_path):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 3, size=(20, 2))
        ds = Dataset(rng.normal(size=(20, 5)), labels, 3, None)
        back, _ = self.roundtrip(ds, tmp_path)
        assert back.k == 2 and back.true_labels is None
        np.testing.assert_array_equal(back.given_labels, ds.given_labels)

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = clean_dataset(n=11, c=3, d=2, seed=22)
        save_dataset(ds, tmp_path / "a.nld")
        save_dataset(ds, tmp_path / "b.nld")
        assert (tmp_path / "a.nld").read_bytes() == (tmp_path / "b.nld").read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        ds = clean_dataset(n=5, seed=23)
        _, path = self.roundtrip(ds, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_truncation_reports_offset(self, tmp_path):
        ds = clean_dataset(n=5, seed=24)
        _, path = self.roundtrip(ds, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(FormatError, match="offset"):
            load_dataset(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = clean_dataset(n=5, seed=25)
        _, path = self.roundtrip(ds, tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ds = clean_dataset(n=5, seed=26)
        _, path = self.roundtrip(ds, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_zero_feature_columns_rejected_at_save(self, tmp_path):
        ds = clean_dataset(n=3, seed=27)
        ds.features = ds.features[:, :0]
        with pytest.raises(DataError):
            save_dataset(ds, tmp_path / "zero.nld")

    def test_label_bound_violation_rejected_on_load(self, tmp_path):
        ds = clean_dataset(n=4, c=3, seed=28)
        _, path = self.roundtrip(ds, tmp_path)
        blob = bytearray(path.read_bytes())
        # first given label starts right after header + features block
        label_off = 4 + 21 + ds.n * ds.d * 8
        blob[label_off:label_off + 4] = (250).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="invalid dataset content"):
            load_dataset(path)


class TestMultiInjection:
    def test_per_attribute_specs(self):
        train, _ = generate_synthetic_multi(
            SyntheticSpec(dim=2, sigma=1.0, separation=6.0, n_train=1000, n_test=10, seed=30),
            [3, 4])
        noisy, flips = inject_noise(train, NoiseSpec(mode="uniform", rho=(0.2, 0.5), seed=31),
                                    [3, 4])
        assert flips[0].size == 200 and flips[1].size == 500
        for k in range(2):
            col_differs = np.flatnonzero(noisy.given_labels[:, k] != noisy.true_labels[:, k])
            np.testing.assert_array_equal(flips[k], col_differs)


def generated_sets():
    """(name, dataset) for the train and test set of every generator."""
    single = {kind: generate_synthetic(SyntheticSpec(kind=kind, classes=2, height=3, width=3,
                                                     n_train=40, n_test=9, seed=5))
              for kind in ("blobs", "moons", "patches")}
    single["multi"] = generate_synthetic_multi(SyntheticSpec(n_train=40, n_test=9, seed=5),
                                               [3, 4])
    return [(f"{kind} {part}", ds) for kind, sets in single.items()
            for part, ds in zip(("train", "test"), sets)]


class TestOneLabelArray:
    """A generated set's given labels are its true labels, one read-only
    array; injection copies before it writes."""

    @pytest.mark.parametrize("name, ds", generated_sets())
    def test_a_generated_set_holds_one_read_only_label_array(self, name, ds):
        assert ds.given_labels is ds.true_labels
        assert not ds.given_labels.flags.writeable
        truth = ds.true_labels.copy()
        with pytest.raises(ValueError):
            ds.given_labels[0] = 1
        with pytest.raises(ValueError):
            ds.given_labels[...] = 0
        np.testing.assert_array_equal(ds.true_labels, truth)

    @pytest.mark.parametrize("name, ds", generated_sets())
    def test_injection_returns_writeable_labels_of_its_own(self, name, ds):
        counts = [3, 4] if ds.k else [ds.c]
        noisy, _ = inject_noise(ds, NoiseSpec(mode="uniform", rho=(0.5,), seed=6), counts)
        assert noisy.given_labels is not noisy.true_labels
        for labels in (noisy.given_labels, noisy.true_labels):
            assert labels.flags.writeable
            assert not np.shares_memory(labels, ds.true_labels)
        assert not np.shares_memory(noisy.given_labels, noisy.true_labels)
        np.testing.assert_array_equal(noisy.true_labels, ds.true_labels)
        noisy.given_labels[...] = 0
        noisy.true_labels[...] = 0
        assert ds.true_labels.any()  # the generated set keeps its labels

    @pytest.mark.parametrize("name, ds", generated_sets())
    def test_injection_does_not_read_the_features_again(self, name, ds):
        """The features were checked when the set was made: a NaN written
        into them afterwards goes unseen, and the noisy set shares them.
        Its labels and flips are those of the untouched set."""
        counts = [3, 4] if ds.k else [ds.c]
        spec = NoiseSpec(mode="uniform", rho=(0.4,), seed=8)
        want, want_flips = inject_noise(ds, spec, counts)
        ds.features[1, 0] = np.nan
        noisy, flips = inject_noise(ds, spec, counts)
        assert noisy.features is ds.features
        for got, ref in zip(flips + [noisy.given_labels, noisy.true_labels],
                            want_flips + [want.given_labels, want.true_labels]):
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
