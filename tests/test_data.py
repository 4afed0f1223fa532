"""Datasets, noise injection, synthetic generators, and the NLD1 format."""

import numpy as np
import pytest

from noiseattn import (ConfigError, DataError, Dataset, FormatError, NoiseSpec,
                       SyntheticSpec, empirical_transition, generate_synthetic,
                       generate_synthetic_multi, inject_noise,
                       inject_noise_multi, load_dataset, save_dataset)
from oracles import uniform_flip_matrix


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


def clean_dataset(n=100, c=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, c, size=n)
    return Dataset(rng.normal(size=(n, d)), y.copy(), c, y.copy())


class TestInjectNoise:
    def test_zero_rho_is_identity_with_empty_record(self):
        ds = clean_dataset()
        noisy, flips = inject_noise(ds, NoiseSpec(rho=0.0, seed=1))
        np.testing.assert_array_equal(noisy.given_labels, ds.true_labels)
        assert flips.size == 0

    def test_exact_flip_count_and_all_flipped_differ(self):
        ds = clean_dataset(n=1000, c=4, seed=2)
        noisy, flips = inject_noise(ds, NoiseSpec(rho=0.5, seed=3))
        assert flips.size == 500
        assert (noisy.given_labels[flips] != noisy.true_labels[flips]).all()

    def test_flip_record_is_exact(self):
        ds = clean_dataset(n=400, c=3, seed=4)
        noisy, flips = inject_noise(ds, NoiseSpec(rho=0.25, seed=5))
        differs = np.flatnonzero(noisy.given_labels != noisy.true_labels)
        np.testing.assert_array_equal(np.sort(flips), differs)

    def test_empirical_transition_matches_flip_matrix(self):
        # law of large numbers at a frozen seed
        ds = clean_dataset(n=30_000, c=3, seed=6)
        noisy, _ = inject_noise(ds, NoiseSpec(rho=0.3, seed=7))
        emp = empirical_transition(noisy.true_labels, noisy.given_labels, 3)
        target = uniform_flip_matrix(3, 0.3)
        assert np.abs(emp - target).max() <= 0.01

    def test_matrix_mode_follows_transition_columns(self):
        t = np.array([[0.6, 0.3, 0.0],
                      [0.4, 0.5, 0.2],
                      [0.0, 0.2, 0.8]])
        ds = clean_dataset(n=30_000, c=3, seed=8)
        noisy, flips = inject_noise(ds, NoiseSpec(mode="matrix", matrix=t, seed=9))
        emp = empirical_transition(noisy.true_labels, noisy.given_labels, 3)
        assert np.abs(emp - t).max() <= 0.015
        differs = np.flatnonzero(noisy.given_labels != noisy.true_labels)
        np.testing.assert_array_equal(flips, differs)

    def test_per_class_mode_counts(self):
        ds = clean_dataset(n=3000, c=3, seed=10)
        rates = (0.0, 0.2, 0.5)
        noisy, flips = inject_noise(ds, NoiseSpec(mode="per_class", per_class=rates, seed=11))
        for cls, rate in enumerate(rates):
            cls_idx = np.flatnonzero(ds.true_labels == cls)
            flipped = np.intersect1d(cls_idx, flips)
            assert flipped.size == int(round(rate * cls_idx.size))

    def test_missing_true_labels_rejected(self):
        ds = clean_dataset()
        bare = Dataset(ds.features, ds.given_labels, ds.c, None)
        with pytest.raises(DataError):
            inject_noise(bare, NoiseSpec(rho=0.1, seed=0))

    def test_statistical_fidelity_per_column(self):
        # empirical column L1 distance <= 3 / sqrt(N / C) on every tested seed
        c, n = 4, 8000
        bound = 3.0 / np.sqrt(n / c)
        for seed in range(15):
            ds = clean_dataset(n=n, c=c, seed=seed)
            noisy, _ = inject_noise(ds, NoiseSpec(rho=0.4, seed=seed + 100))
            emp = empirical_transition(noisy.true_labels, noisy.given_labels, c)
            l1 = np.abs(emp - uniform_flip_matrix(c, 0.4)).sum(axis=0)
            assert l1.max() <= bound

    def test_injection_is_deterministic(self):
        ds = clean_dataset(n=500, c=5, seed=12)
        a, fa = inject_noise(ds, NoiseSpec(rho=0.3, seed=13))
        b, fb = inject_noise(ds, NoiseSpec(rho=0.3, seed=13))
        np.testing.assert_array_equal(a.given_labels, b.given_labels)
        np.testing.assert_array_equal(fa, fb)


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
        train, _ = generate_synthetic_multi([3, 4], dim=2, sigma=1.0, separation=6.0,
                                            n_train=5000, n_test=10, seed=7)
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
        train, _ = generate_synthetic_multi([3, 4], dim=2, sigma=1.0, separation=6.0,
                                            n_train=1000, n_test=10, seed=30)
        specs = [NoiseSpec(rho=0.2, seed=(31, 0)), NoiseSpec(rho=0.5, seed=(31, 1))]
        noisy, flips = inject_noise_multi(train, specs, [3, 4])
        assert flips[0].size == 200 and flips[1].size == 500
        for k in range(2):
            col_differs = np.flatnonzero(noisy.given_labels[:, k] != noisy.true_labels[:, k])
            np.testing.assert_array_equal(flips[k], col_differs)
