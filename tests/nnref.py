"""Loop reference implementations of Conv2D and MaxPool2x2 forward/backward.

These are the original per-output-position loops that ``noiseattn.nn``
replaced with strided views. They define the exact arithmetic (values,
summation order, tie-breaking, signed zeros) the vectorised layers must
reproduce byte for byte. Gradients accumulate into zero buffers with
``+=``, as ``Parameter.grad`` does after ``zero_grad``.
"""

import numpy as np


def conv_forward(x, w, bias, k, s):
    """Return (y, cols) for a valid-padding NHWC convolution."""
    b, h, wd, cin = x.shape
    ho = (h - k) // s + 1
    wo = (wd - k) // s + 1
    cols = np.empty((b, ho, wo, k * k * cin))
    for i in range(ho):
        for j in range(wo):
            cols[:, i, j, :] = x[:, i * s:i * s + k, j * s:j * s + k, :].reshape(b, -1)
    return cols @ w + bias, cols


def conv_backward(dy, cols, xshape, w, k, s):
    """Return (dx, w_grad, b_grad) for the convolution that produced ``cols``."""
    b, h, wd, cin = xshape
    ho, wo = dy.shape[1], dy.shape[2]
    b_grad = np.zeros(w.shape[1])
    b_grad += dy.sum(axis=(0, 1, 2))
    w_grad = np.zeros_like(w)
    w_grad += cols.reshape(-1, k * k * cin).T @ dy.reshape(-1, dy.shape[3])
    dcols = dy @ w.T
    dx = np.zeros(xshape)
    for i in range(ho):
        for j in range(wo):
            dx[:, i * s:i * s + k, j * s:j * s + k, :] += dcols[:, i, j, :].reshape(b, k, k, cin)
    return dx, w_grad, b_grad


def pool_forward(x):
    """Return (y, arg) for 2x2 stride-2 max pooling; arg indexes the window."""
    b, h, w, c = x.shape
    windows = x.reshape(b, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    flat = windows.reshape(b, h // 2, w // 2, 4, c)
    arg = flat.argmax(axis=3)
    y = np.take_along_axis(flat, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, arg


def pool_backward(dy, arg, xshape):
    b, h, w, c = xshape
    dflat = np.zeros((b, h // 2, w // 2, 4, c))
    np.put_along_axis(dflat, arg[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    return dflat.reshape(b, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(b, h, w, c)
