"""Conv2D, MaxPool2x2 and SGD against the loop references in ``nnref``:
byte equality.

The layers are vectorised with strided views and SGD steps one parameter
arena; every output, input gradient, parameter gradient and updated
parameter must keep the exact bytes of the loop code, including signed
zeros, tie-breaking and NaN propagation.
"""

import itertools

import numpy as np
import pytest

from nnref import LoopSGD, conv_backward, conv_forward, pool_backward, pool_forward
from noiseattn import SGD, Conv2D, MaxPool2x2, Network, Parameter

CONV_SHAPES = [
    # (batch, h, w, cin, cout, kernel, stride)
    (3, 12, 12, 1, 8, 3, 1),
    (2, 9, 7, 2, 3, 3, 2),
    (2, 11, 8, 3, 4, 4, 3),
    (4, 6, 10, 2, 5, 2, 1),
    (1, 10, 13, 3, 2, 4, 2),
    (2, 7, 7, 1, 3, 2, 3),
    (64, 12, 12, 1, 1, 3, 1),  # one output channel: the bias gradient sums one column
    (64, 12, 12, 1, 8, 3, 1),  # the conv_patches benchmark layer
]

# 100 shapes: every (cin, cout, kernel) of the grid below, with stride,
# batch and a non-square input cycling through their values.
CONV_GRID = [
    ((1, 7, 64)[i % 3], k + 2 + i % 5, k + 1 + i % 7, cin, cout, k, 1 + i % 2)
    for i, (cin, cout, k) in enumerate(itertools.product((1, 2, 3, 4, 8), (1, 2, 3, 8, 32),
                                                         (1, 2, 3, 5)))
]


def assert_bytes_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def conv_outputs(shape, spread=False):
    """``y``, ``dx``, ``w.grad`` and ``b.grad`` of a Conv2D layer of
    ``shape``, each paired with the loop reference's. With ``spread`` the
    output gradient's magnitudes span 16 decades and hold signed zeros, so
    a sum taken in another order rounds differently."""
    b, h, w, cin, cout, k, s = shape
    rng = np.random.default_rng(sum(shape))
    net = Network([Conv2D(cin, cout, k, stride=s)], (h, w, cin), seed=1)
    layer = net.layers[0]
    layer.b.data[...] = rng.normal(size=cout)
    x = rng.normal(size=(b, h, w, cin))
    y = net.forward(x.reshape(len(x), -1))  # the rows a dataset holds
    dy = rng.normal(size=y.shape)
    if spread:
        dy *= 10.0 ** rng.integers(-8, 8, size=y.shape)
        dy[rng.uniform(size=y.shape) < 0.05] = -0.0
    dx = net.backward(dy)

    y_ref, cols = conv_forward(x, layer.w.data, layer.b.data, k, s)
    dx_ref, w_grad, b_grad = conv_backward(dy, cols, x.shape, layer.w.data, k, s)
    return {"y": (y, y_ref), "dx": (dx, dx_ref), "w.grad": (layer.w.grad, w_grad),
            "b.grad": (layer.b.grad, b_grad)}


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "b{}_{}x{}x{}_c{}_k{}_s{}".format(*s))
def test_conv_matches_loop_reference(shape):
    for actual, expected in conv_outputs(shape).values():
        assert_bytes_equal(actual, expected)


def test_conv_grid_matches_loop_reference():
    """Every output of every ``CONV_GRID`` shape, one channel out included."""
    differ = [(shape, name) for shape in CONV_GRID
              for name, (actual, expected) in conv_outputs(shape, spread=True).items()
              if actual.shape != expected.shape or actual.tobytes() != expected.tobytes()]
    assert differ == []


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "b{}_{}x{}x{}_c{}_k{}_s{}".format(*s))
def test_conv_without_input_grad_keeps_parameter_grads(shape):
    """``input_grad=False`` returns None and accumulates the same bytes into
    ``w.grad`` and ``b.grad`` as the full backward and the loop reference."""
    b, h, w, cin, cout, k, s = shape
    rng = np.random.default_rng(sum(shape))
    net = Network([Conv2D(cin, cout, k, stride=s)], (h, w, cin), seed=1)
    layer = net.layers[0]
    x = rng.normal(size=(b, h, w, cin))
    y = net.forward(x.reshape(len(x), -1))  # the rows a dataset holds
    dy = rng.normal(size=y.shape)
    net.backward(dy)
    full = layer.w.grad.copy(), layer.b.grad.copy()
    layer.w.grad[...] = 0.0
    layer.b.grad[...] = 0.0
    assert net.backward(dy, input_grad=False) is None

    _, cols = conv_forward(x, layer.w.data, layer.b.data, k, s)
    _, w_grad, b_grad = conv_backward(dy, cols, x.shape, layer.w.data, k, s)
    for grad, full_grad, ref in zip((layer.w.grad, layer.b.grad), full, (w_grad, b_grad)):
        assert_bytes_equal(grad, full_grad)
        assert_bytes_equal(grad, ref)


def pool_case(x, dy):
    net = Network([MaxPool2x2()], x.shape[1:], seed=0)
    y = net.forward(x.reshape(len(x), -1))  # the rows a dataset holds
    dx = net.backward(dy)
    y_ref, arg = pool_forward(x)
    assert_bytes_equal(y, y_ref)
    assert_bytes_equal(dx, pool_backward(dy, arg, x.shape))


@pytest.mark.parametrize("shape", [(3, 12, 12, 8), (2, 6, 10, 3)])
def test_pool_on_relu_output_keeps_signed_zeros(shape):
    rng = np.random.default_rng(shape[1])
    x = rng.normal(size=shape)
    x[rng.uniform(size=shape) < 0.2] = 0.0
    x = x * (x > 0)  # ReLU as the layer computes it: negatives become -0.0
    assert np.signbit(x[x == 0]).any() and (~np.signbit(x[x == 0])).any()
    dy = rng.normal(size=(shape[0], shape[1] // 2, shape[2] // 2, shape[3]))
    dy[rng.uniform(size=dy.shape) < 0.2] = -0.0
    pool_case(x, dy)


def test_pool_exact_ties_pick_first_cell():
    rng = np.random.default_rng(5)
    x = rng.integers(-2, 3, size=(4, 8, 8, 3)).astype(np.float64)  # many exact ties
    dy = rng.normal(size=(4, 4, 4, 3))
    pool_case(x, dy)


def test_pool_nan_and_inf_cells():
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
    for trial in range(50):
        rng = np.random.default_rng(trial)
        x = rng.choice(values, size=(2, 4, 6, 2))
        dy = rng.normal(size=(2, 2, 3, 2))
        pool_case(x, dy)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_sgd_arena_matches_per_parameter_loop(weight_decay):
    rng = np.random.default_rng(17)
    inits = [rng.normal(size=shape) for shape in [(5, 3), (3,), (4, 4), (1,)]]
    late = rng.normal(size=(3, 2))  # joins both optimizers mid-training
    fast = [Parameter(a.copy()) for a in inits]
    slow = [Parameter(a.copy()) for a in inits]
    opt = SGD(fast, lr=0.05, momentum=0.9, weight_decay=weight_decay)
    ref = LoopSGD(slow, lr=0.05, momentum=0.9, weight_decay=weight_decay)
    for step in range(12):
        if step == 5:
            fast.append(Parameter(late.copy()))
            slow.append(Parameter(late.copy()))
            opt.add_param(fast[-1])
            ref.add_param(slow[-1])
        for p, q in zip(fast, slow):
            g = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-8, 3, size=p.data.shape)
            g[rng.uniform(size=g.shape) < 0.2] = -0.0
            p.grad[...] = g
            q.grad[...] = g
        opt.step()
        ref.step()
        for p, q in zip(fast, slow):
            assert_bytes_equal(p.data, q.data)
            assert_bytes_equal(p.grad, q.grad)
