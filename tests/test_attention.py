"""Noise units: routing, losses, projection, schedule, and invariants."""

import math

import numpy as np
import pytest

from noiseattn import (ConfigError, Dense, Decision, NAModel, Network, NoiseUnit, ReLU,
                       Trainer, TrainSettings, UnitSchedule, attention_outputs,
                       generate_synthetic,
                       inject_noise, na_loss, nll_loss,
                       project_column_stochastic, schedule_step, softmax)
from noiseattn import NoiseSpec, SyntheticSpec
from noiseattn.attention import na_loss_terms, routed_backward, unit_outputs
from noiseattn.nn import EPS
from gradfixtures import grad_check
from oracles import infer, na_backward, nll_loss_grad
from oracles import (decay_penalty, na_forward, project_units, routed_backward_masks,
                     select_unit, unit_outputs_stacked)


def model_pair(matrices, decays=None, frozen=()):
    """Two equal models: the identity plus one unit per matrix."""
    models = []
    for _ in range(2):
        model = NAModel(matrices[0].shape[0])
        for i, q in enumerate(matrices):
            unit = model.add_unit(decay=0.0 if decays is None else decays[i])
            unit.q.data[...] = q
        for m in frozen:
            model.units[m].frozen = True
        models.append(model)
    return models


def assert_units_equal(fast, ref, attr):
    for a, b in zip(fast.units, ref.units):
        assert getattr(a.q, attr).tobytes() == getattr(b.q, attr).tobytes()


def two_unit_model():
    """Identity plus the worked confusion matrix from the docs."""
    model = NAModel(2)
    unit = model.add_unit()
    unit.q.data[...] = np.array([[0.9, 0.2], [0.1, 0.8]])
    return model


class TestForwardAndSelection:
    def test_identity_unit_passthrough(self):
        unit = NoiseUnit(2, frozen=True)
        np.testing.assert_array_equal(na_forward([0.3, 0.7], unit), [0.3, 0.7])

    def test_hand_matrix_vector_product(self):
        model = two_unit_model()
        out = na_forward(np.array([0.5, 0.5]), model.units[1])
        np.testing.assert_allclose(out, [0.55, 0.45], atol=1e-15)

    def test_uniform_input_gives_row_sums(self):
        rng = np.random.default_rng(3)
        q = project_column_stochastic(rng.uniform(size=(4, 4)))
        unit = NoiseUnit(4)
        unit.q.data[...] = q
        out = na_forward(np.full(4, 0.25), unit)
        np.testing.assert_allclose(out, q.sum(axis=1) / 4, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            na_forward([0.5, 0.3, 0.2], NoiseUnit(2))

    def test_single_unit_selected(self):
        model = NAModel(3)
        assert select_unit([0.2, 0.3, 0.5], 1, model.units) == 0

    def test_hand_selection_case(self):
        # identity confidence 0.3; unit 2 gives 0.9*0.3 + 0.2*0.7 = 0.41
        model = two_unit_model()
        assert select_unit(np.array([0.3, 0.7]), 0, model.units) == 1

    def test_one_hot_ties_break_to_identity(self):
        model = two_unit_model()
        model.units[1].q.data[...] = np.eye(2)  # exact tie everywhere
        assert select_unit(np.array([1.0, 0.0]), 0, model.units) == 0

    def test_batch_selection_matches_scalar_rule(self):
        rng = np.random.default_rng(4)
        model = NAModel(3)
        for _ in range(2):
            u = model.add_unit()
            u.q.data[...] = project_column_stochastic(rng.uniform(size=(3, 3)))
        probs = rng.dirichlet(np.ones(3), size=12)
        labels = rng.integers(0, 3, size=12)
        sel, _ = attention_outputs(probs, labels, model)
        expected = [select_unit(probs[i], labels[i], model.units) for i in range(12)]
        np.testing.assert_array_equal(sel, expected)


class TestLoss:
    def test_single_unit_equals_plain_nll_bitwise(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=9)
        labels = rng.integers(0, 4, size=9)
        assert na_loss(probs, labels, NAModel(4)) == nll_loss(probs, labels)

    def test_hand_loss_case(self):
        model = two_unit_model()
        loss = na_loss(np.array([[0.3, 0.7]]), np.array([0]), model)
        np.testing.assert_allclose(loss, -math.log(0.41), rtol=1e-12)

    def test_perfect_identity_predictions_give_zero(self):
        model = two_unit_model()
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert na_loss(probs, np.array([0, 1]), model) == 0.0

    def test_loss_never_exceeds_forced_identity(self):
        # argmax selection can only raise each sample's picked confidence
        rng = np.random.default_rng(6)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = NAModel(5)
            for _ in range(3):
                u = model.add_unit()
                u.q.data[...] = project_column_stochastic(rng.uniform(size=(5, 5)))
            probs = rng.dirichlet(np.ones(5), size=16)
            labels = rng.integers(0, 5, size=16)
            assert na_loss(probs, labels, model) <= nll_loss(probs, labels) + 1e-12


class TestBackward:
    def test_identity_only_selection_matches_plain_gradient(self):
        rng = np.random.default_rng(7)
        model = NAModel(3)
        unit = model.add_unit()
        # off-identity unit that is never selected: make it terrible everywhere
        unit.q.data[...] = project_column_stochastic(np.full((3, 3), 1.0) - np.eye(3))
        probs = np.full((4, 3), 1.0 / 3)
        probs[np.arange(4), [0, 1, 2, 0]] = 0.9
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([0, 1, 2, 0])
        sel, out, picked, _ = na_loss_terms(probs, labels, model)
        assert (sel == 0).all()
        unit.q.grad[...] = 0.0
        gp = na_backward(probs, labels, model, terms=(sel, out, picked))
        np.testing.assert_array_equal(unit.q.grad, 0.0)
        np.testing.assert_allclose(gp, nll_loss_grad(probs, labels), rtol=1e-12, atol=0)

    def test_unit_gradient_formula_single_sample(self):
        # d(-log((Q p)[y]))/dq[y, i] = -p_i / (Q p)[y]
        model = two_unit_model()
        unit = model.units[1]
        probs = np.array([[0.3, 0.7]])
        labels = np.array([0])
        unit.q.grad[...] = 0.0
        na_backward(probs, labels, model)
        np.testing.assert_allclose(unit.q.grad[0], -probs[0] / 0.41, rtol=1e-12)
        np.testing.assert_array_equal(unit.q.grad[1], 0.0)

    def test_unit_gradient_against_finite_differences(self):
        model = two_unit_model()
        unit = model.units[1]
        probs = np.array([[0.3, 0.7]])
        labels = np.array([0])

        def loss_fn():
            unit.q.grad[...] = 0.0
            _, _, _, loss = na_loss_terms(probs, labels, model)
            na_backward(probs, labels, model)
            return loss

        assert grad_check([unit.q], loss_fn) <= 1e-6

    def test_identity_anchor_zero_at_identity(self):
        model = NAModel(3)
        unit = model.add_unit(decay=0.5)
        probs = np.array([[1.0, 0.0, 0.0]])  # routes through the identity unit
        unit.q.grad[...] = 0.0
        na_backward(probs, np.array([0]), model)
        np.testing.assert_array_equal(unit.q.grad, 0.0)

    def test_decay_gradient_applied_off_identity(self):
        model = NAModel(2)
        unit = model.add_unit(decay=0.25)
        unit.q.data[...] = np.array([[0.8, 0.3], [0.2, 0.7]])
        probs = np.array([[1.0, 0.0]])
        unit.q.grad[...] = 0.0
        na_backward(probs, np.array([0]), model)  # identity selected; only decay flows
        np.testing.assert_allclose(unit.q.grad, 0.25 * (unit.q.data - np.eye(2)), atol=1e-15)

    def test_gradient_locality_at_fixed_selection(self):
        # perturbing unit m must leave samples routed elsewhere untouched
        model = two_unit_model()
        probs = np.array([[0.9, 0.1],   # identity wins (label 0)
                          [0.3, 0.7]])  # unit 2 wins (label 0)
        labels = np.array([0, 0])
        sel, out = attention_outputs(probs, labels, model)
        np.testing.assert_array_equal(sel, [0, 1])
        per_sample_before = -np.log(out[np.arange(2), labels])
        model.units[1].q.data[0, 1] += 1e-4
        sel2, out2 = attention_outputs(probs, labels, model)
        np.testing.assert_array_equal(sel2, sel)
        per_sample_after = -np.log(out2[np.arange(2), labels])
        assert per_sample_after[0] == per_sample_before[0]
        assert per_sample_after[1] != per_sample_before[1]

    def test_decay_penalty_matches_decay_gradient(self):
        rng = np.random.default_rng(9)
        model = NAModel(3)
        unit = model.add_unit(decay=0.1)
        unit.q.data[...] = project_column_stochastic(rng.uniform(size=(3, 3)))
        probs = rng.dirichlet(np.ones(3), size=6)
        labels = rng.integers(0, 3, size=6)

        def loss_fn():
            unit.q.grad[...] = 0.0
            _, _, _, loss = na_loss_terms(probs, labels, model)
            na_backward(probs, labels, model)
            return loss + decay_penalty(model)

        assert grad_check([unit.q], loss_fn) <= 1e-6


class TestProjection:
    def test_clamp_then_renormalize(self):
        col = np.array([[-0.1], [0.6], [0.9]])
        out = project_column_stochastic(np.hstack([col, col, col]))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.4, 0.6], atol=1e-15)

    def test_stochastic_matrix_is_fixed_point(self):
        q = np.array([[0.7, 0.25], [0.3, 0.75]])
        np.testing.assert_array_equal(project_column_stochastic(q), q)

    def test_degenerate_column_resets_to_identity_column(self):
        q = -np.ones((3, 3))
        out = project_column_stochastic(q)
        np.testing.assert_array_equal(out, np.eye(3))
        np.testing.assert_array_equal(out[:, 2], [0.0, 0.0, 1.0])

    def test_projection_output_always_valid(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            q = rng.normal(scale=2.0, size=(5, 5))
            out = project_column_stochastic(q)
            np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestFastPathsMatchLoops:
    """``project``, ``unit_outputs`` and ``routed_backward`` against the
    per-unit loops in ``oracles``: byte equality."""

    @pytest.mark.parametrize("case", ["random", "zero_columns", "nonfinite"])
    def test_in_place_projection(self, case):
        rng = np.random.default_rng(["random", "zero_columns", "nonfinite"].index(case))
        for _ in range(20):
            mats = [rng.normal(size=(4, 4)) for _ in range(3)]
            for q in mats:
                if case == "zero_columns":
                    q[:, rng.integers(4)] = -np.abs(q[:, 0])
                    q[:, rng.integers(4)] = rng.choice([0.0, -0.0], size=4)
                elif case == "nonfinite":
                    q[rng.uniform(size=q.shape) < 0.15] = rng.choice([np.nan, np.inf, -np.inf])
            fast, ref = model_pair(mats, frozen=(2,) if case == "random" else ())
            arrays = [u.q.data for u in fast.units]
            with np.errstate(invalid="ignore"):
                fast.project()
                project_units(ref)
            assert_units_equal(fast, ref, "data")
            assert all(u.q.data is a for u, a in zip(fast.units, arrays))

    @pytest.mark.parametrize("seed", range(6))
    def test_routing_and_routed_backward(self, seed):
        rng = np.random.default_rng(100 + seed)
        mats = [project_column_stochastic(np.eye(5) + rng.uniform(size=(5, 5)))
                for _ in range(4)]
        fast, ref = model_pair(mats, decays=[0.0, 1e-3, 2e-3, 4e-3], frozen=(3,))
        for a, b in zip(fast.units, ref.units):
            a.q.grad[...] = b.q.grad[...] = rng.normal(size=(5, 5))
        probs = softmax(rng.normal(size=(64, 5)))
        assert unit_outputs(probs, fast).tobytes() == unit_outputs_stacked(probs, ref).tobytes()
        out_grad = rng.normal(size=(64, 5))
        out_grad[rng.uniform(size=out_grad.shape) < 0.3] = -0.0
        sel = rng.integers(0, 5, size=64)
        sel[sel == 2] = 1  # unit 2 receives no samples
        gp = routed_backward(probs, sel, out_grad, fast)
        assert gp.tobytes() == routed_backward_masks(probs, sel, out_grad, ref).tobytes()
        assert_units_equal(fast, ref, "grad")


class TestSchedule:
    def schedule(self, max_units=5):
        return UnitSchedule(pretrain_epochs=5, patience=3, improvement_threshold=1e-3,
                            max_units=max_units)

    def test_decreasing_history_continues(self):
        model = NAModel(3)
        history = [1.0 - 0.05 * i for i in range(8)]
        assert schedule_step(history, self.schedule(), model) is Decision.CONTINUE

    def test_flat_history_adds_unit(self):
        model = NAModel(3)
        model.add_unit()
        assert model.active_count == 2
        history = [0.5] * 6
        assert schedule_step(history, self.schedule(5), model) is Decision.ADD_UNIT

    def test_flat_history_at_cap_stops(self):
        model = NAModel(3)
        history = [0.5] * 6
        assert schedule_step(history, self.schedule(max_units=1), model) is Decision.STOP

    def test_short_history_continues(self):
        model = NAModel(3)
        assert schedule_step([0.5] * 5, self.schedule(), model) is Decision.CONTINUE

    def test_decay_growth_per_unit(self):
        sched = UnitSchedule(pretrain_epochs=1, patience=1, improvement_threshold=1e-3,
                             decay_base=1e-3, decay_growth=2.0, max_units=4)
        assert sched.decay_for(2) == 1e-3
        assert sched.decay_for(3) == 2e-3
        assert sched.decay_for(4) == 4e-3


class TestInfer:
    def test_matches_forward_softmax(self):
        net = Network([Dense(2, 8), ReLU(), Dense(8, 3)], (2,), seed=21)
        x = np.random.default_rng(22).normal(size=(5, 2))
        np.testing.assert_array_equal(infer(net, x), softmax(net.forward(x)))

    def test_untrained_net_is_near_uniform_on_average(self):
        net = Network([Dense(4, 16), ReLU(), Dense(16, 5)], (4,), seed=23)
        x = np.random.default_rng(24).normal(size=(4000, 4))
        mean_probs = infer(net, x).mean(axis=0)
        np.testing.assert_allclose(mean_probs, 0.2, atol=0.1)

    def test_trained_separable_task_is_accurate(self):
        train, test = generate_synthetic(SyntheticSpec(
            kind="blobs", classes=3, dim=2, n_train=400, n_test=200, seed=25))
        net = Network([Dense(2, 16), ReLU(), Dense(16, 3)], (2,), seed=26)
        trainer = Trainer(net, TrainSettings(lr=0.05, batch_size=32), seed=27)
        for _ in range(40):
            trainer.train_epoch(train.features, train.given_labels, use_na=False)
        preds = infer(net, test.features).argmax(axis=1)
        assert np.mean(preds == test.true_labels) >= 0.95


class TestTrainingInvariants:
    def _trained_model(self, seed=0, epochs=12):
        train, _ = generate_synthetic(SyntheticSpec(
            kind="blobs", classes=3, dim=2, n_train=300, n_test=50, seed=seed))
        noisy, _ = inject_noise(train, NoiseSpec(rho=0.3, seed=seed + 1))
        net = Network([Dense(2, 12), ReLU(), Dense(12, 3)], (2,), seed=seed)
        model = NAModel(3)
        trainer = Trainer(net, TrainSettings(lr=0.05, batch_size=32), [model], seed=seed)
        schedule = UnitSchedule(pretrain_epochs=1, patience=1, improvement_threshold=1e-3,
                                max_units=3, init_jitter=1e-3)
        trainer.add_unit(schedule)
        trainer.add_unit(schedule)
        for _ in range(epochs):
            trainer.train_epoch(noisy.features, noisy.given_labels, use_na=True)
        return model

    def test_columns_stay_stochastic_under_training(self):
        model = self._trained_model()
        for unit in model.units:
            q = unit.q.data
            np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-9)
            assert q.min() >= 0.0 and q.max() <= 1.0

    def test_identity_unit_is_immutable(self):
        model = self._trained_model(seed=2)
        np.testing.assert_array_equal(model.units[0].q.data, np.eye(3))

    def test_added_units_start_near_identity(self):
        model = NAModel(4)
        rng = np.random.default_rng(30)
        unit = model.add_unit(decay=0.0, jitter=1e-3, rng=rng)
        assert np.abs(unit.q.data - np.eye(4)).max() <= 4 * 1e-3
        np.testing.assert_allclose(unit.q.data.sum(axis=0), 1.0, atol=1e-12)


class TestReduction:
    def test_single_unit_training_is_bit_identical_to_plain(self):
        train, _ = generate_synthetic(SyntheticSpec(
            kind="blobs", classes=3, dim=2, n_train=240, n_test=40, seed=31))
        noisy, _ = inject_noise(train, NoiseSpec(rho=0.4, seed=32))
        settings = TrainSettings(lr=0.05, momentum=0.9, batch_size=32)
        net_plain = Network([Dense(2, 10), ReLU(), Dense(10, 3)], (2,), seed=(33, 1))
        net_na = Network([Dense(2, 10), ReLU(), Dense(10, 3)], (2,), seed=(33, 1))
        plain = Trainer(net_plain, settings, seed=34)
        na = Trainer(net_na, settings, [NAModel(3)], seed=34)
        plain_losses = [plain.train_epoch(noisy.features, noisy.given_labels, use_na=False)
                        for _ in range(5)]
        na_losses = [na.train_epoch(noisy.features, noisy.given_labels, use_na=True)
                     for _ in range(5)]
        assert plain_losses == na_losses
        np.testing.assert_array_equal(net_plain.param_vector(), net_na.param_vector())
