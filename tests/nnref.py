"""Loop reference implementations of Conv2D and MaxPool2x2 forward/backward,
of the SGD step, and of the class-axis reductions of the losses.

These are the original per-output-position loops that ``noiseattn.nn``
replaced with strided views, the per-parameter SGD loop it replaced
with one parameter arena, and the per-row reduces (``np.add.reduce`` and
``np.maximum.reduce`` along the last axis) that ``nn.row_sum`` and
``softmax`` replaced with column sweeps. They define the exact arithmetic
(values, summation order, tie-breaking, signed zeros) the vectorised code
must reproduce byte for byte. Gradients accumulate into zero buffers with
``+=``, as ``Parameter.grad`` does after ``zero_grad``.
"""

import numpy as np

from noiseattn import EPS


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


class LoopSGD:
    """Momentum SGD stepping one parameter at a time, each with its own velocity."""

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.params = list(params)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def add_param(self, param):
        self.params.append(param)
        self.velocity.append(np.zeros_like(param.data))

    def step(self):
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            if self.weight_decay:
                v += self.weight_decay * p.data
            p.data -= self.lr * v
            p.grad[...] = 0.0


def softmax(logits):
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def softmax_backward(probs, gprobs):
    dot = np.add.reduce(gprobs * probs, axis=1, keepdims=True)
    return probs * (gprobs - dot)


def soft_nll_loss(attention_probs, supervisions):
    logp = np.log(np.maximum(attention_probs, EPS))
    return float(-(np.add.reduce(np.add.reduce(supervisions * logp, axis=1))
                   / attention_probs.shape[0]))


def soft_route_scores(stacked, supervisions):
    """The (M, B) scores of the soft routing rule over (M, B, C) unit outputs."""
    return np.add.reduce(supervisions[None, :, :] * np.log(np.maximum(stacked, EPS)), axis=2)
