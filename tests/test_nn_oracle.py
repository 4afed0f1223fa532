"""Conv2D and MaxPool2x2 against the loop references in ``nnref``: byte equality.

The layers are vectorised with strided views; every output, input
gradient and parameter gradient must keep the exact bytes of the loop
code, including signed zeros, tie-breaking and NaN propagation.
"""

import numpy as np
import pytest

from nnref import conv_backward, conv_forward, pool_backward, pool_forward
from noiseattn import Conv2D, MaxPool2x2, Network

CONV_SHAPES = [
    # (batch, h, w, cin, cout, kernel, stride)
    (3, 12, 12, 1, 8, 3, 1),
    (2, 9, 7, 2, 3, 3, 2),
    (2, 11, 8, 3, 4, 4, 3),
    (4, 6, 10, 2, 5, 2, 1),
    (1, 10, 13, 3, 2, 4, 2),
    (2, 7, 7, 1, 3, 2, 3),
]


def assert_bytes_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "b{}_{}x{}x{}_c{}_k{}_s{}".format(*s))
def test_conv_matches_loop_reference(shape):
    b, h, w, cin, cout, k, s = shape
    rng = np.random.default_rng(sum(shape))
    net = Network([Conv2D(cin, cout, k, stride=s)], (h, w, cin), seed=1)
    layer = net.layers[0]
    layer.b.data[...] = rng.normal(size=cout)
    x = rng.normal(size=(b, h, w, cin))
    y = net.forward(x)
    dy = rng.normal(size=y.shape)
    dx = net.backward(dy)

    y_ref, cols = conv_forward(x, layer.w.data, layer.b.data, k, s)
    dx_ref, w_grad, b_grad = conv_backward(dy, cols, x.shape, layer.w.data, k, s)
    assert_bytes_equal(y, y_ref)
    assert_bytes_equal(dx, dx_ref)
    assert_bytes_equal(layer.w.grad, w_grad)
    assert_bytes_equal(layer.b.grad, b_grad)


def pool_case(x, dy):
    net = Network([MaxPool2x2()], x.shape[1:], seed=0)
    y = net.forward(x)
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
