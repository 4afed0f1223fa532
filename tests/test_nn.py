"""Network core: forward passes, losses, SGD, and gradient checking."""

import math

import numpy as np
import pytest

from noiseattn import (ConfigError, DataError, Dense, Conv2D, Flatten, MaxPool2x2,
                       Network, Parameter, ReLU, SGD, UsageError, nll_loss,
                       softmax, softmax_backward)
from noiseattn.nn import EPS
from gradfixtures import grad_check, grad_check_classifier
from oracles import n_params, nll_loss_grad, zero_grad


class TestForward:
    def test_dense_identity(self):
        net = Network([Dense(2, 2)], (2,), seed=0)
        net.layers[0].w.data[...] = np.eye(2)
        net.layers[0].b.data[...] = 0.0
        out = net.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0, 4.0]])

    def test_relu_definition(self):
        net = Network([Dense(3, 3), ReLU()], (3,), seed=0)
        net.layers[0].w.data[...] = np.eye(3)
        net.layers[0].b.data[...] = 0.0
        out = net.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_dense_hand_case(self):
        # 0.5*2 - 0.5*2 + 1 = 1
        net = Network([Dense(2, 1)], (2,), seed=0)
        net.layers[0].w.data[...] = np.array([[0.5], [-0.5]])
        net.layers[0].b.data[...] = 1.0
        out = net.forward(np.array([[2.0, 2.0]]))
        np.testing.assert_allclose(out, [[1.0]], rtol=0, atol=0)

    def test_shape_mismatch_is_config_error(self):
        net = Network([Dense(2, 2)], (2,), seed=0)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 3)))

    def test_incompatible_chain_rejected_at_build(self):
        with pytest.raises(ConfigError):
            Network([Dense(2, 4), Dense(3, 2)], (2,), seed=0)
        with pytest.raises(ConfigError):
            Network([Conv2D(1, 4, 3)], (2,), seed=0)  # conv on flat input
        with pytest.raises(ConfigError):
            Network([MaxPool2x2()], (5, 6, 1), seed=0)  # odd height

    def test_forward_is_deterministic(self):
        net = Network([Dense(4, 8), ReLU(), Dense(8, 3)], (4,), seed=3)
        x = np.random.default_rng(0).normal(size=(6, 4))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_param_count_constant(self):
        net = Network([Dense(4, 8), ReLU(), Dense(8, 3)], (4,), seed=3)
        before = n_params(net)
        net.forward(np.zeros((2, 4)))
        net.backward(np.zeros((2, 3)))
        assert n_params(net) == before == 4 * 8 + 8 + 8 * 3 + 3

    def test_conv_pool_flatten_shapes(self):
        net = Network([Conv2D(1, 3, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(12, 2)],
                      (6, 6, 1), seed=0)
        out = net.forward(np.random.default_rng(1).normal(size=(4, 6, 6, 1)))
        assert out.shape == (4, 2)
        # flat rows are reshaped to the declared input shape
        flat = np.random.default_rng(2).normal(size=(4, 36))
        assert net.forward(flat).shape == (4, 2)

    def test_backward_before_forward_is_usage_error(self):
        net = Network([Dense(2, 2)], (2,), seed=0)
        with pytest.raises(UsageError):
            net.backward(np.zeros((1, 2)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_hand_case(self):
        out = softmax(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_stability_under_large_logits(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one_property(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            logits = rng.uniform(-1e3, 1e3, size=(8, 5))
            sums = softmax(logits).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


class TestNLL:
    def test_perfect_prediction(self):
        assert nll_loss(np.array([[1.0, 0.0]]), [0]) == 0.0

    def test_hand_case(self):
        loss = nll_loss(np.array([[0.2, 0.8]]), [1])
        np.testing.assert_allclose(loss, -math.log(0.8), rtol=1e-15)

    def test_uniform_two_rows(self):
        loss = nll_loss(np.array([[0.5, 0.5], [0.5, 0.5]]), [0, 1])
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            nll_loss(np.array([[0.5, 0.5]]), [2])

    def test_nonnegative_and_zero_iff_certain(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            probs = rng.dirichlet(np.ones(4), size=6)
            labels = rng.integers(0, 4, size=6)
            assert nll_loss(probs, labels) >= 0.0
        certain = np.zeros((3, 4))
        certain[np.arange(3), [1, 2, 0]] = 1.0
        assert nll_loss(certain, [1, 2, 0]) == 0.0
        assert nll_loss(np.array([[0.9, 0.1]]), [0]) > 0.0


class TestBackward:
    def test_fused_gradient_identity(self):
        # d(nll o softmax)/dlogits == (probs - one_hot) / B
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        probs = softmax(logits)
        composed = softmax_backward(probs, nll_loss_grad(probs, labels))
        onehot = np.zeros_like(probs)
        onehot[np.arange(5), labels] = 1.0
        np.testing.assert_allclose(composed, (probs - onehot) / 5, rtol=1e-9, atol=1e-14)

    def test_zero_upstream_gives_zero_grads(self):
        net = Network([Dense(3, 6), ReLU(), Dense(6, 2)], (3,), seed=1)
        x = np.random.default_rng(2).normal(size=(4, 3))
        net.forward(x)
        zero_grad(net)
        net.backward(np.zeros((4, 2)))
        for p in net.parameters():
            np.testing.assert_array_equal(p.grad, 0.0)

    def test_input_gradient_matches_finite_difference(self):
        net = Network([Dense(3, 5), ReLU(), Dense(5, 2)], (3,), seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3))
        labels = np.array([0, 1])

        def loss_of(xv):
            return nll_loss(softmax(net.forward(xv)), labels)

        probs = softmax(net.forward(x))
        zero_grad(net)
        dx = net.backward(softmax_backward(probs, nll_loss_grad(probs, labels)))
        h = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                num = (loss_of(xp) - loss_of(xm)) / (2 * h)
                np.testing.assert_allclose(dx[i, j], num, rtol=1e-5, atol=1e-9)


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        p.grad[...] = 2.0
        opt.step()
        np.testing.assert_allclose(p.data, [0.8], rtol=0, atol=0)
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_zero_grad_zero_decay_leaves_param(self):
        p = Parameter(np.array([3.0, -2.0]))
        opt = SGD([p], lr=0.5)
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0, -2.0])

    def test_momentum_recursion(self):
        # v1 = 1 -> theta = -0.1; v2 = 0.9 + 1 = 1.9 -> theta = -0.29
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad[...] = 1.0
        opt.step()
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-15)
        p.grad[...] = 1.0
        opt.step()
        np.testing.assert_allclose(p.data, [-0.29], atol=1e-15)

    def test_weight_decay_enters_velocity(self):
        p = Parameter(np.array([2.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        p.grad[...] = 0.0
        opt.step()  # v = 0.5 * 2 = 1; theta = 2 - 0.1
        np.testing.assert_allclose(p.data, [1.9], atol=1e-15)

    def test_bad_hyperparameters_rejected(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ConfigError):
            SGD([p], lr=0.0)
        with pytest.raises(ConfigError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ConfigError):
            SGD([p], lr=0.1, weight_decay=-1.0)


class TestGradCheck:
    def test_dense_relu_dense(self):
        net = Network([Dense(3, 8), ReLU(), Dense(8, 4)], (3,), seed=11)
        rng = np.random.default_rng(12)
        err = grad_check_classifier(net, rng.normal(size=(4, 3)), rng.integers(0, 4, size=4))
        assert err <= 1e-6

    def test_linear_network_is_smooth(self):
        # smooth loss: a larger step keeps truncation tiny and cuts rounding noise
        net = Network([Dense(3, 5), Dense(5, 3)], (3,), seed=13)
        rng = np.random.default_rng(14)
        err = grad_check_classifier(net, rng.normal(size=(4, 3)), rng.integers(0, 3, size=4),
                                    h=1e-5)
        assert err <= 1e-8

    def test_conv_pool_network(self):
        net = Network([Conv2D(1, 2, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(8, 3)],
                      (6, 6, 1), seed=15)
        rng = np.random.default_rng(16)
        err = grad_check_classifier(net, rng.normal(size=(3, 6, 6, 1)),
                                    rng.integers(0, 3, size=3))
        assert err <= 1e-6

    def test_strided_conv(self):
        net = Network([Conv2D(2, 3, 3, stride=2), ReLU(), Flatten(), Dense(12, 2)],
                      (5, 5, 2), seed=17)
        rng = np.random.default_rng(18)
        err = grad_check_classifier(net, rng.normal(size=(3, 5, 5, 2)),
                                    rng.integers(0, 2, size=3))
        assert err <= 1e-6

    def test_corrupted_backward_is_detected(self):
        # negative control: a wrong backward must blow past the tolerance
        net = Network([Dense(3, 4), ReLU(), Dense(4, 2)], (3,), seed=19)
        layer = net.layers[0]
        original = layer.backward

        def corrupted(dy):
            dx = original(dy)
            layer.w.grad *= 1.5
            return dx

        layer.backward = corrupted
        rng = np.random.default_rng(20)
        err = grad_check_classifier(net, rng.normal(size=(4, 3)), rng.integers(0, 2, size=4))
        assert err > 1e-2

    def test_generic_grad_check_reports_max(self):
        p = Parameter(np.array([1.0, 2.0]))

        def loss_fn():
            p.grad[...] = [2.0 * p.data[0], 3.0]  # wrong second component
            return float(p.data[0] ** 2 + 2.0 * p.data[1])

        err = grad_check([p], loss_fn)
        assert err > 0.3  # |3 - 2| / 3


class TestClamp:
    def test_log_grad_matches_clamped_loss(self):
        # below the clamp the loss is flat, so the gradient must be zero
        from noiseattn.nn import log_grad_coef
        g = log_grad_coef(np.array([0.5, EPS / 10]), 2)
        np.testing.assert_allclose(g[0], -1.0 / (2 * 0.5))
        assert g[1] == 0.0
