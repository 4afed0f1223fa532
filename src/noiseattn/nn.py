"""Deterministic float64 feed-forward networks with hand-derived backprop.

Layers: Dense, Conv2D (valid padding, NHWC), ReLU, MaxPool2x2, Flatten.
Losses: max-subtracted softmax and clamped negative log likelihood.
Training: SGD with momentum and weight decay. An optimizer packs its
parameters into one contiguous arena (data, grad and velocity buffers),
and each ``Parameter``'s ``data`` and ``grad`` become views into it, so a
step is a handful of whole-buffer operations. Code that updates a
parameter must therefore write into ``data`` (``p.data[...] = ...``), never
rebind it. Parameters are drawn Glorot-uniform from numpy's PCG64
generator (``np.random.default_rng``), so construction and training are
bit-reproducible given the same seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UsageError

EPS = 1e-12  # probability clamp applied before any log


def entropy_tuple(*parts) -> tuple[int, ...]:
    """Flatten ints/tuples into one entropy tuple for default_rng."""
    flat: list[int] = []
    for part in parts:
        if isinstance(part, (tuple, list)):
            flat.extend(int(p) for p in part)
        else:
            flat.append(int(part))
    return tuple(flat)


class Parameter:
    """Learnable float64 array paired with a same-shaped gradient buffer.

    Once an optimizer holds the parameter, both arrays are views into its
    arena: write into them in place, do not rebind them.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def size(self) -> int:
        return self.data.size


# ---------------------------------------------------------------------------
# Layer specs


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    seed: int | None = None

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(f"Dense dims must be positive, got {self.in_dim}x{self.out_dim}")


@dataclass(frozen=True)
class Conv2D:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    seed: int | None = None

    def __post_init__(self):
        if min(self.in_ch, self.out_ch, self.kernel, self.stride) < 1:
            raise ConfigError("Conv2D channel/kernel/stride values must be positive")


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool2x2:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Dense | Conv2D | ReLU | MaxPool2x2 | Flatten


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _layer_rng(spec_seed, net_seed, index):
    if spec_seed is not None:
        return np.random.default_rng(spec_seed)
    return np.random.default_rng(entropy_tuple(net_seed, index))


# ---------------------------------------------------------------------------
# Materialized layers


class _DenseLayer:
    def __init__(self, spec: Dense, rng):
        self.w = Parameter(_glorot_uniform(rng, (spec.in_dim, spec.out_dim), spec.in_dim, spec.out_dim))
        self.b = Parameter(np.zeros(spec.out_dim))
        self._x = None

    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        self._x = x
        y = x @ self.w.data
        y += self.b.data
        return y

    def backward(self, dy):
        if self._x is None:
            raise UsageError("Dense.backward() before forward()")
        self.w.grad += self._x.T @ dy
        self.b.grad += np.add.reduce(dy, axis=0)
        return dy @ self.w.data.T


class _ConvLayer:
    """Valid-padding convolution over NHWC batches via patch matrices.

    Each patch row holds its window in (di, dj, c) order. The input
    gradient is scattered one kernel offset at a time, with di and dj both
    descending: each dx element then receives its terms in ascending
    output-position order, the order of a loop over output positions, so
    its rounding does not depend on this layout. The matmuls run on the
    4-D arrays on purpose; reshaping them to 2-D changes result bits for
    some channel counts.
    """

    def __init__(self, spec: Conv2D, rng):
        k = spec.kernel
        fan_in = spec.in_ch * k * k
        fan_out = spec.out_ch * k * k
        self.w = Parameter(_glorot_uniform(rng, (k * k * spec.in_ch, spec.out_ch), fan_in, fan_out))
        self.b = Parameter(np.zeros(spec.out_ch))
        self.kernel = k
        self.stride = spec.stride
        self._cols = None
        self._xshape = None

    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        b, h, w, cin = x.shape
        k, s = self.kernel, self.stride
        ho = (h - k) // s + 1
        wo = (w - k) // s + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
        cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b, ho, wo, k * k * cin)
        self._cols = cols
        self._xshape = x.shape
        y = cols @ self.w.data
        y += self.b.data
        return y

    def backward(self, dy):
        if self._cols is None:
            raise UsageError("Conv2D.backward() before forward()")
        b, h, w, cin = self._xshape
        k, s = self.kernel, self.stride
        ho, wo = dy.shape[1], dy.shape[2]
        self.b.grad += dy.sum(axis=(0, 1, 2))
        self.w.grad += self._cols.reshape(-1, k * k * cin).T @ dy.reshape(-1, dy.shape[3])
        dcols = (dy @ self.w.data.T).reshape(b, ho, wo, k, k, cin)
        dx = np.zeros(self._xshape)
        span_h, span_w = (ho - 1) * s + 1, (wo - 1) * s + 1
        for di in reversed(range(k)):
            for dj in reversed(range(k)):
                dx[:, di:di + span_h:s, dj:dj + span_w:s, :] += dcols[:, :, :, di, dj, :]
        return dx


class _ReLULayer:
    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        if self._mask is None:
            raise UsageError("ReLU.backward() before forward()")
        return dy * self._mask


class _MaxPoolLayer:
    """2x2 max pooling, stride 2; gradient goes to the argmax cell only.

    The four window cells are compared in row-major order with the rule
    ``argmax`` uses: the first maximum wins, a NaN beats any number and
    the first NaN wins. The output and the gradient are then read from
    and written to the winning cell through its flat index, so the output
    keeps the winner's own bits (its signed zero, its NaN payload) and
    every other input cell gets a gradient of +0.0.
    """

    def __init__(self):
        self._idx = None
        self._xshape = None

    def params(self):
        return []

    def forward(self, x):
        b, h, w, c = x.shape
        # One contiguous row of length b*(h//2)*(w//2)*c per window cell.
        cells = x.reshape(b, h // 2, 2, w // 2, 2, c).transpose(2, 4, 0, 1, 3, 5).reshape(4, -1)
        # Flat index into x of each window's top-left cell.
        row = (np.arange(w // 2)[:, None] * (2 * c) + np.arange(c)).ravel()
        idx = (np.arange(b * (h // 2))[:, None] * (2 * w * c) + row).ravel()
        # The winner's value, used only in comparisons: np.maximum may return the
        # other signed zero or another NaN than the winner holds.
        top = cells[0]
        off = np.zeros(idx.shape, dtype=np.intp)
        for q, step in enumerate((c, w * c, w * c + c), start=1):
            gt = ~(cells[q] <= top) & (top == top)  # cell > winner, or the first NaN
            np.maximum(off, gt * step, out=off)  # steps grow with q: the latest winner stays
            top = np.maximum(top, cells[q])
        idx += off
        self._idx = idx
        self._xshape = x.shape
        return x.reshape(-1)[idx].reshape(b, h // 2, w // 2, c)

    def backward(self, dy):
        if self._idx is None:
            raise UsageError("MaxPool2x2.backward() before forward()")
        dx = np.zeros(math.prod(self._xshape))
        dx[self._idx] = dy.reshape(-1)
        return dx.reshape(self._xshape)


class _FlattenLayer:
    def __init__(self):
        self._xshape = None

    def params(self):
        return []

    def forward(self, x):
        self._xshape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        if self._xshape is None:
            raise UsageError("Flatten.backward() before forward()")
        return dy.reshape(self._xshape)


def _materialize(spec, shape, net_seed, index):
    if isinstance(spec, Dense):
        if len(shape) != 1:
            raise ConfigError(f"layer {index}: Dense needs a flat input, got {shape}; add Flatten first")
        if shape[0] != spec.in_dim:
            raise ConfigError(f"layer {index}: Dense in_dim {spec.in_dim} != incoming width {shape[0]}")
        return _DenseLayer(spec, _layer_rng(spec.seed, net_seed, index)), (spec.out_dim,)
    if isinstance(spec, Conv2D):
        if len(shape) != 3:
            raise ConfigError(f"layer {index}: Conv2D needs an HxWxC input, got {shape}")
        h, w, ch = shape
        if ch != spec.in_ch:
            raise ConfigError(f"layer {index}: Conv2D in_ch {spec.in_ch} != incoming channels {ch}")
        ho = (h - spec.kernel) // spec.stride + 1
        wo = (w - spec.kernel) // spec.stride + 1
        if ho < 1 or wo < 1:
            raise ConfigError(f"layer {index}: kernel {spec.kernel} larger than input {h}x{w}")
        return _ConvLayer(spec, _layer_rng(spec.seed, net_seed, index)), (ho, wo, spec.out_ch)
    if isinstance(spec, ReLU):
        return _ReLULayer(), shape
    if isinstance(spec, MaxPool2x2):
        if len(shape) != 3:
            raise ConfigError(f"layer {index}: MaxPool2x2 needs an HxWxC input, got {shape}")
        h, w, ch = shape
        if h % 2 or w % 2:
            raise ConfigError(f"layer {index}: MaxPool2x2 needs even spatial dims, got {h}x{w}")
        return _MaxPoolLayer(), (h // 2, w // 2, ch)
    if isinstance(spec, Flatten):
        return _FlattenLayer(), (math.prod(shape),)
    raise ConfigError(f"layer {index}: unknown layer spec {spec!r}")


class Network:
    """Feed-forward layer stack with explicit, cached backward passes.

    Shape compatibility between consecutive layers is validated at build
    time; the parameter set is fixed afterwards. ``forward`` accepts either
    a batch shaped (B, *input_shape) or flat rows (B, prod(input_shape)).
    """

    def __init__(self, specs, input_shape, seed=0):
        if isinstance(input_shape, int):
            input_shape = (input_shape,)
        self.specs = tuple(specs)
        self.input_shape = tuple(int(s) for s in input_shape)
        if any(s < 1 for s in self.input_shape):
            raise ConfigError(f"input shape must be positive, got {self.input_shape}")
        self._flat_width = math.prod(self.input_shape)
        self.seed = seed
        self.layers = []
        shape = self.input_shape
        for i, spec in enumerate(self.specs):
            layer, shape = _materialize(spec, shape, seed, i)
            self.layers.append(layer)
        self.output_shape = shape
        self._params = [p for layer in self.layers for p in layer.params()]
        self._forward_done = False

    @property
    def out_dim(self) -> int:
        if len(self.output_shape) != 1:
            raise ConfigError(f"network output {self.output_shape} is not flat; add Flatten/Dense")
        return self.output_shape[0]

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def forward(self, batch):
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 2 and len(self.input_shape) > 1:
            if batch.shape[1] != self._flat_width:
                raise ConfigError(f"batch width {batch.shape[1]} != input size {self._flat_width}")
            batch = batch.reshape((batch.shape[0],) + self.input_shape)
        if batch.ndim != 1 + len(self.input_shape) or batch.shape[1:] != self.input_shape:
            raise ConfigError(f"batch shape {batch.shape} does not match input {self.input_shape}")
        if batch.shape[0] < 1:
            raise ConfigError("empty batch")
        out = batch
        for layer in self.layers:
            out = layer.forward(out)
        self._forward_done = True
        return out

    def backward(self, dout):
        """Propagate an output gradient; returns the input gradient."""
        if not self._forward_done:
            raise UsageError("Network.backward() before forward()")
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def param_vector(self) -> np.ndarray:
        if not self._params:
            return np.zeros(0)
        return np.concatenate([p.data.ravel() for p in self._params])


# ---------------------------------------------------------------------------
# Losses
#
# The per-step functions reduce with ``np.add.reduce`` and
# ``np.maximum.reduce``: the ufuncs that ``.sum()``, ``.max()`` and
# ``np.mean`` call, with the same bits, minus their Python wrappers.


def softmax(logits):
    """Row-wise softmax with max subtraction; rows sum to 1 within 1e-12."""
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def softmax_backward(probs, gprobs):
    """Apply the softmax Jacobian to a gradient in probability space."""
    dot = np.add.reduce(gprobs * probs, axis=1, keepdims=True)
    return probs * (gprobs - dot)


def check_labels(labels, n_classes):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"labels must lie in [0, {n_classes}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    return labels


def label_columns(labels) -> list[np.ndarray]:
    """One label array per attribute: (N,) labels are one column, (N, K) are K."""
    labels = np.asarray(labels)
    return [labels] if labels.ndim == 1 else list(labels.T)


def log_grad_coef(picked, batch):
    """Derivative of -log(max(p, EPS))/batch wrt p: zero in the clamped region."""
    coef = -1.0 / (batch * np.maximum(picked, EPS))
    return np.where(picked > EPS, coef, 0.0)


def _picked_nll(probs, labels):
    """``nll_loss`` for labels already known to lie in range; returns the
    picked entries ``probs[i, labels[i]]`` too."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return picked, float(-(np.add.reduce(np.log(np.maximum(picked, EPS))) / picked.size))


def _nll_grad(probs, labels, picked):
    """Gradient of ``nll_loss`` wrt the probabilities, for checked labels
    and their picked entries ``probs[i, labels[i]]``."""
    b = probs.shape[0]
    g = np.zeros(probs.shape)
    g[np.arange(b), labels] = log_grad_coef(picked, b)
    return g


def nll_loss(probs, labels) -> float:
    """Mean negative log likelihood of the given labels, clamped at EPS."""
    return _picked_nll(probs, check_labels(labels, probs.shape[1]))[1]


# ---------------------------------------------------------------------------
# Optimizer


class SGD:
    """Momentum SGD: v <- momentum*v + grad + weight_decay*theta; theta -= lr*v.

    The parameters live in one contiguous arena: a float64 data buffer, a
    grad buffer and a velocity buffer, each holding every parameter in
    order. Each parameter's ``data`` and ``grad`` are rebound to views into
    the arena when it joins, so a step updates all of them with a few
    whole-buffer operations, elementwise and hence bit-identical to
    stepping each parameter alone. ``add_param`` repacks the arena and
    keeps the velocities built so far. A parameter follows the optimizer
    it joined last: joining a second one detaches it from the first.
    Gradients are zeroed after each step. Velocity buffers start at zero.
    """

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigError(f"weight decay must be non-negative, got {weight_decay}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros(0)
        self._pack(list(params))

    def add_param(self, param: Parameter):
        self._pack(self.params + [param])

    def _pack(self, params):
        """Copy ``params`` into fresh buffers and point each at its slice.

        The current parameters must come first, in order, so their
        velocities keep their place.
        """
        n = sum(p.size for p in params)
        data, grad, velocity = np.empty(n), np.empty(n), np.zeros(n)
        velocity[:self._velocity.size] = self._velocity
        pos = 0
        for p in params:
            stop = pos + p.size
            data[pos:stop] = p.data.ravel()
            grad[pos:stop] = p.grad.ravel()
            p.data = data[pos:stop].reshape(p.data.shape)
            p.grad = grad[pos:stop].reshape(p.grad.shape)
            pos = stop
        self.params: list[Parameter] = params
        self._data, self._grad, self._velocity = data, grad, velocity

    def step(self):
        v = self._velocity
        v *= self.momentum
        v += self._grad
        if self.weight_decay:
            v += self.weight_decay * self._data
        self._data -= self.lr * v
        self._grad[...] = 0.0
