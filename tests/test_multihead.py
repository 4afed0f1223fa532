"""Multi-attribute heads: shared trunk, per-attribute losses, joint metric."""

import math

import numpy as np
import pytest

from noiseattn import (AttributeSpec, ConfigError, DataError, Dense, MultiHeadNetwork,
                       NAModel, Network, ReLU, Trainer, TrainSettings,
                       evaluate_all_metric, generate_synthetic_multi, softmax, softmax_backward)
from noiseattn import NoiseSpec, SyntheticSpec, inject_noise
from noiseattn.multihead import _errors
from noiseattn.recursion import RecursionSchedule, run_recursion
from noiseattn.training import _loss_total
from gradfixtures import grad_check
from oracles import na_loss, nll_loss, nll_loss_grad
from oracles import multi_attribute_loss, multi_forward


def small_mh(seed=0, class_counts=(3, 4)):
    trunk = Network([Dense(4, 10), ReLU()], (4,), seed=(seed, 1))
    return MultiHeadNetwork(trunk, AttributeSpec(list(class_counts)), seed=seed)


class TestForward:
    def test_degenerate_single_attribute_matches_composed_network(self):
        mh = small_mh(seed=5, class_counts=(3,))
        # same trunk + head weights assembled as one flat network
        flat = Network([Dense(4, 10), ReLU(), Dense(10, 3)], (4,), seed=99)
        chain = mh.trunk.parameters() + mh.heads[0].parameters()
        for dst, src in zip(flat.parameters(), chain):
            dst.data[...] = src.data
        x = np.random.default_rng(6).normal(size=(7, 4))
        np.testing.assert_array_equal(multi_forward(mh, x)[0], softmax(flat.forward(x)))

    def test_each_head_outputs_a_distribution(self):
        mh = small_mh(seed=7)
        x = np.random.default_rng(8).normal(size=(5, 4))
        for probs in multi_forward(mh, x):
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert [p.shape[1] for p in multi_forward(mh, x)] == [3, 4]

    def test_trunk_gradient_matches_finite_difference_per_attribute(self):
        mh = small_mh(seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 4))
        labels = np.stack([rng.integers(0, 3, size=4), rng.integers(0, 4, size=4)], axis=1)
        k = 1  # gradient of attribute 1's loss alone
        params = mh.trunk.parameters() + mh.heads[k].parameters()

        def loss_fn():
            for p in mh.parameters():
                p.grad[...] = 0.0
            probs = multi_forward(mh, x)
            loss = nll_loss(probs[k], labels[:, k])
            dlogits = [np.zeros_like(p) for p in probs]
            dlogits[k] = softmax_backward(probs[k], nll_loss_grad(probs[k], labels[:, k]))
            mh.backward(dlogits)
            return loss

        assert grad_check(params, loss_fn, h=1e-5) <= 1e-6


class TestLoss:
    def test_single_attribute_total_equals_na_loss(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(3), size=6)
        labels = rng.integers(0, 3, size=6).reshape(-1, 1)
        model = NAModel(3)
        total, per_attr = multi_attribute_loss([probs], labels, [model])
        assert total == per_attr[0] == na_loss(probs, labels[:, 0], model)

    def test_identical_attributes_double_the_loss(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(3), size=6)
        labels = rng.integers(0, 3, size=6)
        both = np.stack([labels, labels], axis=1)
        models = [NAModel(3), NAModel(3)]
        total, per_attr = multi_attribute_loss([probs, probs], both, models)
        assert per_attr[0] == per_attr[1]
        assert total == 2 * per_attr[0]

    def test_hand_computed_two_attribute_total(self):
        probs1 = np.array([[0.5, 0.5]])
        probs2 = np.array([[0.2, 0.8]])
        labels = np.array([[0, 1]])
        total, per_attr = multi_attribute_loss(
            [probs1, probs2], labels, [NAModel(2), NAModel(2)])
        np.testing.assert_allclose(per_attr, [-math.log(0.5), -math.log(0.8)], rtol=1e-12)
        np.testing.assert_allclose(total, -math.log(0.5) - math.log(0.8), rtol=1e-12)

    def test_trainer_total_passes_one_attribute_through(self):
        # 0.0 + -0.0 is +0.0: a one-attribute total must not be summed from zero
        assert math.copysign(1.0, _loss_total([-0.0])) == -1.0
        assert math.copysign(1.0, _loss_total([-0.0, -0.0])) == 1.0
        assert _loss_total([0.25, 0.5, 0.125]) == 0.875

    def test_label_shape_mismatch(self):
        with pytest.raises(ConfigError):
            multi_attribute_loss([np.ones((2, 3)) / 3], np.zeros((2, 2), dtype=int),
                                 [NAModel(3)])

    def test_head_isolation(self):
        # removing attribute k's loss must not change attribute j's head gradient
        mh = small_mh(seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 4))
        labels = np.stack([rng.integers(0, 3, size=5), rng.integers(0, 4, size=5)], axis=1)

        def head_grads(include_k0):
            for p in mh.parameters():
                p.grad[...] = 0.0
            probs = multi_forward(mh, x)
            dlogits = []
            for k, pk in enumerate(probs):
                if k == 0 and not include_k0:
                    dlogits.append(np.zeros_like(pk))
                else:
                    dlogits.append(softmax_backward(pk, nll_loss_grad(pk, labels[:, k])))
            mh.backward(dlogits)
            return [p.grad.copy() for p in mh.heads[1].parameters()]

        with_k0 = head_grads(True)
        without_k0 = head_grads(False)
        for a, b in zip(with_k0, without_k0):
            np.testing.assert_array_equal(a, b)


class PredictingHeads:
    """A heads view that predicts the columns of ``preds``: each feature
    row holds its own row index, and each head's output is the one-hot row
    of its prediction."""

    def __init__(self, preds):
        self.preds = np.asarray(preds)
        self.names = [f"attr{k}" for k in range(self.preds.shape[1])]

    def forward(self, rows, cache=True):
        one_hot = np.eye(int(self.preds.max()) + 1)
        return [one_hot[column] for column in self.preds[rows[:, 0].astype(int)].T]


def metric(preds, true):
    """``_errors`` of heads that predict ``preds``, against ``true``."""
    rows = np.arange(len(preds), dtype=np.float64)[:, None]
    return _errors(PredictingHeads(preds), rows, true)


class TestAllMetric:
    def test_perfect_predictor(self):
        true = np.array([[0, 1], [2, 0], [1, 1]])
        per_attr, joint = metric(true.copy(), true)
        assert per_attr == [0.0, 0.0] and joint == 0.0

    def test_intersection_bound_always_holds(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            true = rng.integers(0, 4, size=(50, 3))
            preds = rng.integers(0, 4, size=(50, 3))
            per_attr, joint = metric(preds, true)
            # ALL accuracy <= min per-attribute accuracy
            assert 1.0 - joint <= min(1.0 - e for e in per_attr) + 1e-12

    def test_independent_attributes_multiply(self):
        # corrupt two attribute columns independently at 10% each:
        # joint accuracy approaches 0.9 * 0.9
        rng = np.random.default_rng(77)
        n = 10_000
        true = np.stack([rng.integers(0, 3, size=n), rng.integers(0, 4, size=n)], axis=1)
        preds = true.copy()
        for k, c in enumerate((3, 4)):
            wrong = rng.random(n) < 0.1
            offsets = rng.integers(1, c, size=n)
            preds[wrong, k] = (true[wrong, k] + offsets[wrong]) % c
        per_attr, joint = metric(preds, true)
        for err in per_attr:
            assert abs(err - 0.1) < 0.02
        assert abs((1.0 - joint) - 0.81) < 0.02

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            metric(np.zeros((3, 2), dtype=int), np.zeros((3, 3), dtype=int))

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            metric(np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int))


class TestTraining:
    def test_multi_training_learns_separable_attributes(self):
        train, test = generate_synthetic_multi(
            SyntheticSpec(dim=2, sigma=1.0, separation=6.0, n_train=600, n_test=300, seed=20),
            [3, 4])
        trunk = Network([Dense(4, 24), ReLU()], (4,), seed=(21, 1))
        mh = MultiHeadNetwork(trunk, AttributeSpec([3, 4]), seed=21)
        # blob features are O(10); a gentler rate avoids softmax saturation
        trainer = Trainer(mh, TrainSettings(lr=0.02, batch_size=32), seed=22)
        for _ in range(60):
            trainer.train_epoch(train.features, train.given_labels)
        per_attr, joint = evaluate_all_metric(mh, test.features, test.true_labels)
        assert max(per_attr) <= 0.05
        assert joint <= 0.1

    def test_multi_recursion_keeps_supervisions_per_attribute(self):
        train, _ = generate_synthetic_multi(
            SyntheticSpec(dim=2, sigma=1.0, separation=6.0, n_train=300, n_test=60, seed=23),
            [3, 3])
        noisy, flips = inject_noise(train, NoiseSpec(mode="uniform", rho=(0.2,), seed=24),
                                    [3, 3])
        assert all(len(f) == 60 for f in flips)
        trunk = Network([Dense(4, 12), ReLU()], (4,), seed=(25, 1))
        mh = MultiHeadNetwork(trunk, AttributeSpec([3, 3]), seed=25)
        trainer = Trainer(mh, TrainSettings(lr=0.05, batch_size=32),
                          [NAModel(3), NAModel(3)], seed=26)
        for _ in range(8):
            trainer.train_epoch(noisy.features, noisy.given_labels)
        metrics = iter([0.5, 0.4, 0.3])
        records = run_recursion(
            trainer, noisy.features, noisy.given_labels,
            RecursionSchedule(iterations=2, alpha_base=0.8, epochs=2, min_improvement=0.01),
            val_metric=lambda: next(metrics))
        assert [r["iteration"] for r in records] == [1, 2]

    def test_evaluation_requires_true_labels(self):
        mh = small_mh()
        with pytest.raises(DataError):
            evaluate_all_metric(mh, np.zeros((2, 4)), None)
