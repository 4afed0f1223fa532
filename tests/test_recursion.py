"""Soft supervisions, the distillation loss, teacher snapshots, recursion."""

import math

import numpy as np
import pytest

from noiseattn import (AttributeSpec, ConfigError, DataError, Dense, MultiHeadNetwork,
                       NAModel, Network, OneHead, ReLU,
                       RecursionSchedule, Trainer, TrainSettings, alpha_schedule,
                       attention_outputs, generate_synthetic, inject_noise,
                       run_recursion, snapshot_probs, soft_nll_loss, softmax)
from noiseattn import NoiseSpec, SyntheticSpec, recursion
from noiseattn.attention import na_loss_terms, project_column_stochastic, routed_backward
from noiseattn.recursion import soft_attention_outputs, soft_out_grad
from gradfixtures import grad_check
from noiseattn.nn import TEACHER_CHUNK
from oracles import (combine_supervision, combine_supervisions, na_loss, param_vector,
                     snapshot_probs_by_chunk)
from peaks import traced_peak


class TestAlphaSchedule:
    def test_first_round(self):
        assert alpha_schedule(1, 0.8) == 0.8

    def test_fourth_round_hand_power(self):
        np.testing.assert_allclose(alpha_schedule(4, 0.8), 0.4096, rtol=1e-12)

    def test_base_one_is_constant(self):
        for t in (1, 3, 10):
            assert alpha_schedule(t, 1.0) == 1.0

    def test_round_zero_rejected(self):
        with pytest.raises(ConfigError):
            alpha_schedule(0, 0.8)


class TestCombineSupervision:
    def test_hand_case(self):
        s = combine_supervision(1, np.array([0.1, 0.2, 0.7]), 0.8)
        np.testing.assert_allclose(s, [1 / 18, 10 / 18, 7 / 18], atol=1e-12)

    def test_alpha_zero_is_exact_passthrough(self):
        prev = np.array([0.25, 0.5, 0.25])
        np.testing.assert_array_equal(combine_supervision(0, prev, 0.0), prev)

    def test_alpha_dominance_limit(self):
        s = combine_supervision(2, np.array([0.3, 0.3, 0.4]), 1e9)
        one_hot = np.array([0.0, 0.0, 1.0])
        assert np.abs(s - one_hot).max() <= 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            combine_supervision(3, np.array([0.5, 0.5]), 0.5)

    def test_rows_remain_on_simplex(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            prev = rng.dirichlet(np.ones(5), size=8)
            labels = rng.integers(0, 5, size=8)
            alpha = float(rng.uniform(0, 3))
            s = recursion._combine(labels, prev, alpha)
            assert s.min() >= 0.0
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_given_label_mass_is_monotone_in_alpha(self):
        prev = np.array([0.1, 0.6, 0.3])
        masses = [combine_supervision(0, prev, a)[0] for a in (0.0, 0.3, 0.8, 2.0, 10.0)]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        # closed form (alpha + p) / (1 + alpha)
        np.testing.assert_allclose(masses[2], (0.8 + 0.1) / 1.8, atol=1e-15)

    def test_a_round_writes_the_oracle_bits_over_its_teacher_outputs(self):
        rng = np.random.default_rng(41)
        prev = rng.dirichlet(np.ones(4), size=50)
        labels = rng.integers(0, 4, size=50)
        want = combine_supervisions(labels, prev, 0.8)
        in_place = recursion._combine(labels, prev, 0.8)
        assert in_place is prev and in_place.tobytes() == want.tobytes()


class TestSoftLoss:
    def test_one_hot_reduces_to_routed_nll_bitwise(self):
        rng = np.random.default_rng(40)
        model = NAModel(4)
        for _ in range(2):
            u = model.add_unit()
            u.q.data[...] = project_column_stochastic(rng.uniform(size=(4, 4)))
        probs = rng.dirichlet(np.ones(4), size=10)
        labels = rng.integers(0, 4, size=10)
        onehot = np.zeros((10, 4))
        onehot[np.arange(10), labels] = 1.0
        _, out = soft_attention_outputs(probs, onehot, model)
        assert soft_nll_loss(out, onehot) == na_loss(probs, labels, model)

    def test_hand_case(self):
        loss = soft_nll_loss(np.array([[0.1, 0.2, 0.7]]), np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(loss, -math.log(0.2), rtol=1e-12)

    def test_self_supervision_is_entropy_and_gibbs_minimal(self):
        rng = np.random.default_rng(41)
        p = rng.dirichlet(np.ones(5), size=6)
        entropy = float(-np.mean(np.sum(p * np.log(p), axis=1)))
        np.testing.assert_allclose(soft_nll_loss(p, p), entropy, rtol=1e-12)
        for _ in range(10):
            q = rng.dirichlet(np.ones(5), size=6)
            assert soft_nll_loss(p, p) <= soft_nll_loss(q, p) + 1e-12

    @pytest.mark.parametrize("supervisions", [
        [np.full((20, 4), 0.25)],
        [np.full((19, 3), 1 / 3)],
        [np.full((20, 3), 1 / 3)] * 2,
        np.full((20, 3), 1 / 3),
    ], ids=["classes", "rows", "two-for-one-head", "bare-array"])
    def test_malformed_supervisions_rejected_before_any_step(self, supervisions):
        """The trainer takes one (N, C_k) array per head, checked once at entry."""
        net = Network([Dense(2, 3)], (2,), seed=0)
        trainer = Trainer(OneHead(net), TrainSettings(batch_size=8), [NAModel(3)], seed=0)
        before = param_vector(net)
        with pytest.raises(DataError, match=r"one array per head, shaped \[\(20, 3\)\]"):
            trainer.train_epoch_soft(np.zeros((20, 2)), supervisions)
        np.testing.assert_array_equal(param_vector(net), before)

    def test_soft_gradient_against_finite_differences(self):
        # screened fixture: entries sit above the h=1e-6 rounding-noise floor
        from gradfixtures import build_fixture
        params, loss_fn, desc = build_fixture(2)
        assert desc.startswith("soft")
        assert grad_check(params, loss_fn, h=1e-6) <= 1e-6


class TestSnapshot:
    def _setup(self, seed=50):
        rng = np.random.default_rng(seed)
        net = Network([Dense(2, 8), ReLU(), Dense(8, 3)], (2,), seed=seed)
        model = NAModel(3)
        u = model.add_unit()
        u.q.data[...] = project_column_stochastic(rng.uniform(size=(3, 3)) + 2 * np.eye(3))
        x = rng.normal(size=(50, 2))
        y = rng.integers(0, 3, size=50)
        return net, model, x, y

    def test_snapshot_is_deterministic(self):
        net, model, x, y = self._setup()
        np.testing.assert_array_equal(snapshot_probs(OneHead(net), [model], x, y)[0],
                                      snapshot_probs(OneHead(net), [model], x, y)[0])

    def test_single_unit_snapshot_equals_plain_softmax(self, monkeypatch):
        net, _, x, y = self._setup(seed=51)
        model = NAModel(3)
        monkeypatch.setattr(recursion, "TEACHER_CHUNK", 16)
        out = snapshot_probs(OneHead(net), [model], x, y)[0]
        expected = np.concatenate([softmax(net.forward(x[i:i + 16]))
                                   for i in range(0, 50, 16)])
        np.testing.assert_array_equal(out, expected)

    def test_rows_sum_to_one(self):
        net, model, x, y = self._setup(seed=52)
        out = snapshot_probs(OneHead(net), [model], x, y)[0]
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("class_counts", [(3,), (3, 4)], ids=["one_head", "multihead"])
    def test_equals_the_chunks_joined(self, class_counts):
        """Three chunks, the last one short: each chunk's routed rows written
        into the result have the bits of the chunks' rows joined."""
        rng = np.random.default_rng(54)
        n = 2 * TEACHER_CHUNK + 17
        trunk = Network([Dense(2, 8), ReLU(), Dense(8, 3)], (2,), seed=54)
        if len(class_counts) == 1:
            net = OneHead(trunk)
        else:
            net = MultiHeadNetwork(trunk, AttributeSpec(list(class_counts)), seed=54)
        models = []
        for c in class_counts:
            model = NAModel(c)
            model.add_unit().q.data[...] = project_column_stochastic(
                rng.uniform(size=(c, c)) + 2 * np.eye(c))
            models.append(model)
        x = rng.normal(size=(n, 2))
        y = np.stack([rng.integers(0, c, n) for c in class_counts], axis=1)
        y = y[:, 0] if len(class_counts) == 1 else y
        got = snapshot_probs(net, models, x, y)
        want = snapshot_probs_by_chunk(net, models, x, y)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_chunked_equals_selection_on_full_batch(self, monkeypatch):
        net, model, x, y = self._setup(seed=53)
        probs = softmax(net.forward(x))
        _, expected = attention_outputs(probs, y, model)
        monkeypatch.setattr(recursion, "TEACHER_CHUNK", 7)
        np.testing.assert_allclose(snapshot_probs(OneHead(net), [model], x, y)[0],
                                   expected, rtol=1e-12, atol=1e-15)


def _noisy_blobs(seed, n_train=300):
    train, test = generate_synthetic(SyntheticSpec(
        kind="blobs", classes=3, dim=2, n_train=n_train, n_test=100, seed=seed))
    noisy, _ = inject_noise(train, NoiseSpec(mode="uniform", rho=(0.3,), seed=seed + 1), [3])
    return noisy, test


class TestRunRecursion:
    def _trainer(self, noisy, seed=60):
        net = OneHead(Network([Dense(2, 12), ReLU(), Dense(12, 3)], (2,), seed=seed))
        model = NAModel(3)
        trainer = Trainer(net, TrainSettings(lr=0.05, batch_size=32), [model], seed=seed)
        for _ in range(5):
            trainer.train_epoch(noisy.features, noisy.given_labels)
        return trainer

    def test_zero_iterations_leaves_model_untouched(self):
        noisy, _ = _noisy_blobs(61)
        trainer = self._trainer(noisy)
        before = param_vector(trainer.net.trunk)
        records = run_recursion(trainer, noisy.features, noisy.given_labels,
                                RecursionSchedule(iterations=0, alpha_base=0.8, epochs=3,
                                                  min_improvement=0.0),
                                val_metric=lambda: 1.0, on_iteration=lambda record: None)
        assert records == []
        np.testing.assert_array_equal(param_vector(trainer.net.trunk), before)

    def test_empty_dataset_rejected(self):
        noisy, _ = _noisy_blobs(62)
        trainer = self._trainer(noisy)
        with pytest.raises(DataError):
            run_recursion(trainer, noisy.features[:0], noisy.given_labels[:0],
                          RecursionSchedule(iterations=1, alpha_base=0.8, epochs=1,
                                            min_improvement=0.0), val_metric=lambda: 1.0,
                          on_iteration=lambda record: None)

    def test_early_stop_on_limited_improvement(self):
        noisy, _ = _noisy_blobs(63)
        trainer = self._trainer(noisy)
        records = run_recursion(trainer, noisy.features, noisy.given_labels,
                                RecursionSchedule(iterations=5, alpha_base=0.8, epochs=1,
                                                  min_improvement=10.0),
                                val_metric=lambda: 0.5, on_iteration=lambda record: None)
        assert len(records) == 1  # flat metric can never improve by 10

    def test_runs_all_iterations_when_improving(self):
        noisy, _ = _noisy_blobs(64)
        trainer = self._trainer(noisy)
        metric_values = iter([0.5, 0.4, 0.3, 0.2])
        seen = []
        records = run_recursion(trainer, noisy.features, noisy.given_labels,
                                RecursionSchedule(iterations=3, alpha_base=0.8, epochs=1,
                                                  min_improvement=0.05),
                                val_metric=lambda: next(metric_values), on_iteration=seen.append)
        assert [r["iteration"] for r in records] == [1, 2, 3]
        assert seen == records  # each round's record, as the round ends
        assert records[0]["alpha"] == 0.8
        np.testing.assert_allclose(records[2]["alpha"], 0.8 ** 3, rtol=1e-12)

    def test_training_never_reads_labels_after_supervision_build(self):
        # two trainers, same weights; labels scrambled after the supervisions
        # exist must not change the soft epochs
        noisy, _ = _noisy_blobs(65)
        t1 = self._trainer(noisy, seed=66)
        t2 = self._trainer(noisy, seed=66)
        (teacher,) = snapshot_probs(t1.net, t1.na_models, noisy.features, noisy.given_labels)
        sup = recursion._combine(noisy.given_labels, teacher, 0.8)
        noisy.given_labels[...] = 0  # would corrupt any hidden label access
        l1 = [t1.train_epoch_soft(noisy.features, [sup]) for _ in range(3)]
        l2 = [t2.train_epoch_soft(noisy.features, [sup]) for _ in range(3)]
        assert l1 == l2

    def test_a_round_holds_one_supervision_array(self):
        """Supervisions overwrite the teacher outputs and go before the next
        teacher pass. Building them as copies beside the teacher outputs,
        and keeping both into the next round, held 3x the (N, C) array."""
        n, c = 40_000, 10
        rng = np.random.default_rng(67)
        x, y = rng.normal(size=(n, 4)), np.arange(n) % c
        trainer = Trainer(OneHead(Network([Dense(4, c)], (4,), seed=67)),
                          TrainSettings(batch_size=256), [NAModel(c)], seed=67)
        schedule = RecursionSchedule(iterations=2, epochs=1, min_improvement=-1.0)
        records, peak = traced_peak(lambda: run_recursion(
            trainer, x, y, schedule, val_metric=lambda: 0.0, on_iteration=lambda record: None))
        assert len(records) == 2
        assert peak <= 1.5 * n * c * 8
