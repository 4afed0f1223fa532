"""Deterministic float64 feed-forward networks with hand-derived backprop.

Layers: Dense, Conv2D (valid padding, NHWC), ReLU, MaxPool2x2, Flatten.
Losses: max-subtracted softmax, and the terms and gradient of the
clamped negative log likelihood that routed training takes.
Training: SGD with momentum and weight decay. An optimizer packs its
parameters into one contiguous arena (data, grad and velocity buffers),
and each ``Parameter``'s ``data`` and ``grad`` become views into it, so a
step is a handful of whole-buffer operations. Code that updates a
parameter must therefore write into ``data`` (``p.data[...] = ...``), never
rebind it. Parameters are drawn Glorot-uniform from numpy's PCG64
generator (``np.random.default_rng``), so construction and training are
bit-reproducible given the same seeds.

A training forward keeps each layer's backward cache. A forward-only pass
(``Network.forward(batch, cache=False)``) keeps none, and runs the layers
before the first Dense in blocks of ``ROW_BLOCK`` rows, so its conv patch
matrices stay small whatever the batch. Those layers compute each row
alone (the conv matmul runs one GEMM per image row), so blocking does not
change a bit. Dense rows do depend on the number of rows in the matmul,
so the first Dense and every layer after it see the whole batch.

Forward-only passes over separate rows share no state: a pass with
``cache=False`` reads the layers and rebinds nothing they hold. So
``for_each_chunk`` may run the evaluator's ``EVAL_CHUNK``-row passes on
several threads, each into its own rows of a preallocated result. A
chunk keeps its row count, so its GEMMs and its bits do not depend on
the thread that runs it. The caller takes chunks from the same queue as
the pool, which holds one thread fewer than the CPUs: the caller's chunks
reuse its heap, which training and the teacher pass use too, and only the
pool threads' chunks fill heaps of their own. The
pool is used only when the rows hold two full chunks and the process may
run on two CPUs or more; it is made on first use, so a process that
never evaluates that much starts no thread and never imports
``concurrent.futures``.

Activations belong to the network that made them. Dense, Conv2D,
MaxPool2x2 and ReLU return new arrays and Flatten a view of its input, so
a ReLU after any layer other than Flatten sees an array the network made,
and writes ``x * (x > 0)`` into it; a ReLU that may see the caller's batch
(first, or after Flatten only) returns a new array. ``Network`` decides
this once, from the specs. It moves no bit: the multiply is the same
elementwise product, and no layer keeps its own output for backward
(Dense keeps its input, Conv2D its patch matrix, MaxPool2x2 its index and
ReLU its mask), so nothing a backward reads is overwritten.

At small channel counts Conv2D's patch copy and bias gradient spend
their time in numpy's per-inner-loop overhead, not in arithmetic, so each
takes a form with longer inner loops and the same bits. The patch
matrix (im2col) is one ``np.take`` through a table of input-pixel indices
that the layer builds from its input shape when the network is built,
once; a gather only copies. Its bias gradient adds the (b * ho * wo,
cout) rows of the output gradient in order with ``einsum``, which is the
order numpy's sum takes when there is more than one column. A single
output channel is one contiguous column, which numpy sums pairwise, so
there the layer keeps numpy's sum.

The class-axis sums of the losses take such a form too. Numpy sums a row
of fewer than eight values as the running sum ((+0.0 + x0) + x1) + ...,
one inner-loop call per row; ``row_sum`` adds the columns over the whole
batch in that order, from +0.0 (a row of -0.0 sums to +0.0). From eight
values on numpy adds in pairwise blocks, and ``row_sum`` calls its reduce.
``softmax`` runs class-major, one contiguous row per class, below eight
classes and, from ``SWEEP_ROWS`` rows on, up to ``SWEEP_CLASSES``: the
evaluation, teacher and validation passes of a ten-class model. There its
sum follows numpy's pairwise block (``_pairwise_columns``) in sweeps over
the batch. Its max takes no order and ``exp`` and the divide are
elementwise, so the path is chosen by shape alone and moves no bit.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UsageError

EPS = 1e-12  # probability clamp applied before any log
ROW_BLOCK = 256  # rows per block of the layers before the first Dense, forward-only
TEACHER_CHUNK = 2048  # rows per forward-only pass of recursion.snapshot_probs
# Rows per forward-only pass of multihead._errors, for every heads view. for_each_chunk
# runs the passes on the caller and a pool thread per further CPU once the rows hold
# two full chunks.
EVAL_CHUNK = 4096


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _pool():
    """The process-wide chunk pool, made on the first parallel
    ``for_each_chunk``, with one thread fewer than the CPUs: the caller is
    a worker too."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=_cpus() - 1, thread_name_prefix="noiseattn-chunk")


def for_each_chunk(fn, n, chunk):
    """Call ``fn(rows)`` once for each ``chunk``-row slice of ``range(n)``,
    the last one short.

    The calls must be independent: each reads shared inputs and writes
    only its own rows of its results, and none calls ``for_each_chunk``
    (a pool thread would wait on the pool it occupies). When ``n`` holds
    at least two full chunks and the process may run on at least two
    CPUs, min(CPUs, full chunks) workers take the chunks from one queue:
    the caller and the rest on the process-wide pool, each of those under
    a copy of the caller's context taken at submit time, so the caller's
    ``np.errstate`` holds in them; otherwise the calls run inline, in
    order. Every call has returned before this does; the first failure in
    chunk order is then raised. One failure is raised before its turn: an
    interrupt (a ``BaseException`` that is not an ``Exception``, such as
    ``KeyboardInterrupt``) in a chunk the caller runs empties the queue,
    and is raised once the pool's current chunks return.
    """
    slices = [slice(start, start + chunk) for start in range(0, n, chunk)]
    workers = min(_cpus(), n // chunk)
    if workers < 2:
        for rows in slices:
            fn(rows)
        return
    import queue
    todo = queue.SimpleQueue()
    for i in range(len(slices)):
        todo.put(i)
    failures = [None] * len(slices)

    def take():
        try:
            return todo.get_nowait()
        except queue.Empty:
            return None

    def work(caller=False):
        while (i := take()) is not None:
            try:
                fn(slices[i])
            except BaseException as exc:  # raised in the caller once every chunk is done
                if caller and not isinstance(exc, Exception):
                    while take() is not None:  # an interrupt: no worker takes another chunk
                        pass
                    raise
                failures[i] = exc

    tasks = [_pool().submit(contextvars.copy_context().run, work) for _ in range(workers - 1)]
    try:
        work(caller=True)
    finally:
        for task in tasks:
            task.result()
    first = next((exc for exc in failures if exc is not None), None)
    if first is not None:
        raise first


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

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(f"Dense dims must be positive, got {self.in_dim}x{self.out_dim}")


@dataclass(frozen=True)
class Conv2D:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1

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


def _param_shapes(spec) -> list[tuple[int, ...]]:
    """Weight and bias shapes of a Dense or Conv2D layer; none for the others."""
    if isinstance(spec, Dense):
        return [(spec.in_dim, spec.out_dim), (spec.out_dim,)]
    if isinstance(spec, Conv2D):
        return [(spec.kernel * spec.kernel * spec.in_ch, spec.out_ch), (spec.out_ch,)]
    return []


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# Materialized layers


class _DenseLayer:
    def __init__(self, spec: Dense, rng):
        w_shape, b_shape = _param_shapes(spec)
        self.w = Parameter(_glorot_uniform(rng, w_shape, spec.in_dim, spec.out_dim))
        self.b = Parameter(np.zeros(b_shape))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, cache=True):
        if cache:
            self._x = x
        y = x @ self.w.data
        y += self.b.data
        return y

    def backward(self, dy, input_grad=True):
        self.w.grad += self._x.T @ dy
        self.b.grad += np.add.reduce(dy, axis=0)
        return dy @ self.w.data.T if input_grad else None


class _ConvLayer:
    """Valid-padding convolution over NHWC batches via patch matrices.

    im2col is one gather: ``np.take`` along the flattened pixel axis
    through ``_pix``, a table of the input pixel under each (i, j, di, dj)
    output position and kernel offset, so each patch row holds its window
    in (di, dj, c) order. The table depends only on the input shape, which
    ``Network`` walks when it builds the layer; it is built once, never
    written, and shared by every batch size, training step and forward-only
    block. A gather copies values, so it cannot change a bit.

    The bias gradient sums ``dy`` over its (b * ho * wo, cout) rows. For
    cout > 1 numpy's sum adds whole rows one after another, and
    ``einsum("ij->j")`` adds them in the same order with a cheaper inner
    loop, so both give the same bits. For cout = 1 numpy sums the one
    contiguous column pairwise, which einsum does not, so that case keeps
    numpy's sum.

    The input gradient is scattered one kernel offset at a time, with di
    and dj both descending: each dx element then receives its terms in
    ascending output-position order, the order of a loop over output
    positions, so its rounding does not depend on this layout. The matmuls
    run on the 4-D arrays on purpose; reshaping them to 2-D changes result
    bits for some channel counts.
    """

    def __init__(self, spec: Conv2D, rng, in_shape):
        k, s = spec.kernel, spec.stride
        w_shape, b_shape = _param_shapes(spec)
        self.w = Parameter(_glorot_uniform(rng, w_shape, spec.in_ch * k * k, spec.out_ch * k * k))
        self.b = Parameter(np.zeros(b_shape))
        self.kernel = k
        self.stride = s
        self.in_shape = in_shape
        h, w, cin = in_shape
        ho, wo = (h - k) // s + 1, (w - k) // s + 1
        self._cols_shape = (ho, wo, k * k * cin)
        corner = (np.arange(ho)[:, None] * w + np.arange(wo)) * s
        offset = np.arange(k)[:, None] * w + np.arange(k)
        self._pix = (corner[:, :, None, None] + offset).ravel()
        self._pix.flags.writeable = False

    def params(self):
        return [self.w, self.b]

    def forward(self, x, cache=True):
        b = x.shape[0]
        cols = np.take(x.reshape(b, -1, x.shape[3]), self._pix, axis=1)
        cols = cols.reshape((b,) + self._cols_shape)
        if cache:
            self._cols = cols
        y = cols @ self.w.data
        y += self.b.data
        return y

    def backward(self, dy, input_grad=True):
        b, ho, wo, cout = dy.shape
        k, s = self.kernel, self.stride
        rows = dy.reshape(-1, cout)
        self.b.grad += rows.sum(axis=0) if cout == 1 else np.einsum("ij->j", rows)
        self.w.grad += self._cols.reshape(-1, self._cols_shape[2]).T @ rows
        if not input_grad:
            return None
        h, w, cin = self.in_shape
        dcols = (dy @ self.w.data.T).reshape(b, ho, wo, k, k, cin)
        dx = np.zeros((b, h, w, cin))
        span_h, span_w = (ho - 1) * s + 1, (wo - 1) * s + 1
        for di in reversed(range(k)):
            for dj in reversed(range(k)):
                dx[:, di:di + span_h:s, dj:dj + span_w:s, :] += dcols[:, :, :, di, dj, :]
        return dx


class _ReLULayer:
    """``x * (x > 0)``. ``Network`` sets ``in_place`` when a layer other
    than Flatten comes before this one, so that ``x`` is an array the
    network made; the product is then written into ``x``. It is the same
    elementwise multiply either way, so signed zeros, NaNs and infinities
    keep their bits. A ReLU that may see the caller's batch returns a new
    array."""

    def __init__(self, in_place=False):
        self.in_place = in_place

    def params(self):
        return []

    def forward(self, x, cache=True):
        mask = x > 0
        if cache:
            self._mask = mask
        return np.multiply(x, mask, out=x) if self.in_place else x * mask

    def backward(self, dy, input_grad=True):
        return dy * self._mask if input_grad else None


class _MaxPoolLayer:
    """2x2 max pooling, stride 2; gradient goes to the argmax cell only.

    The four window cells are compared in row-major order with the rule
    ``argmax`` uses: the first maximum wins, a NaN beats any number and
    the first NaN wins. The output and the gradient are then read from
    and written to the winning cell through its flat index, so the output
    keeps the winner's own bits (its signed zero, its NaN payload) and
    every other input cell gets a gradient of +0.0.
    """

    def params(self):
        return []

    def forward(self, x, cache=True):
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
        if cache:
            self._idx = idx
            self._xshape = x.shape
        return x.reshape(-1)[idx].reshape(b, h // 2, w // 2, c)

    def backward(self, dy, input_grad=True):
        if not input_grad:
            return None
        dx = np.zeros(math.prod(self._xshape))
        dx[self._idx] = dy.reshape(-1)
        return dx.reshape(self._xshape)


class _FlattenLayer:
    def params(self):
        return []

    def forward(self, x, cache=True):
        if cache:
            self._xshape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, input_grad=True):
        return dy.reshape(self._xshape) if input_grad else None


def _out_shape(spec, shape, index):
    """Output shape of layer ``index`` on an input of ``shape``; ConfigError
    when the two do not fit."""
    if isinstance(spec, Dense):
        if len(shape) != 1:
            raise ConfigError(f"layer {index}: Dense needs a flat input, got {shape}; add Flatten first")
        if shape[0] != spec.in_dim:
            raise ConfigError(f"layer {index}: Dense in_dim {spec.in_dim} != incoming width {shape[0]}")
        return (spec.out_dim,)
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
        return (ho, wo, spec.out_ch)
    if isinstance(spec, ReLU):
        return shape
    if isinstance(spec, MaxPool2x2):
        if len(shape) != 3:
            raise ConfigError(f"layer {index}: MaxPool2x2 needs an HxWxC input, got {shape}")
        h, w, ch = shape
        if h % 2 or w % 2:
            raise ConfigError(f"layer {index}: MaxPool2x2 needs even spatial dims, got {h}x{w}")
        return (h // 2, w // 2, ch)
    if isinstance(spec, Flatten):
        return (math.prod(shape),)
    raise ConfigError(f"layer {index}: unknown layer spec {spec!r}")


def param_count(specs, input_shape) -> tuple[int, tuple[int, ...]]:
    """Parameter count and output shape of ``Network(specs, input_shape)``,
    with the same checks, worked out from the specs alone: nothing is
    allocated."""
    shape, count = tuple(input_shape), 0
    for index, spec in enumerate(specs):
        shape = _out_shape(spec, shape, index)
        count += sum(math.prod(s) for s in _param_shapes(spec))
    return count, shape


def _materialize(spec, net_seed, index, in_shape, owned):
    """Layer ``index`` of a network seeded ``net_seed``, on inputs of
    ``in_shape``; ``owned`` says an earlier layer made those inputs."""
    if isinstance(spec, (Dense, Conv2D)):
        rng = np.random.default_rng(entropy_tuple(net_seed, index))
        if isinstance(spec, Dense):
            return _DenseLayer(spec, rng)
        return _ConvLayer(spec, rng, in_shape)
    if isinstance(spec, ReLU):
        return _ReLULayer(in_place=owned)
    return {MaxPool2x2: _MaxPoolLayer, Flatten: _FlattenLayer}[type(spec)]()


def _run(layers, x, cache):
    for layer in layers:
        x = layer.forward(x, cache)
    return x


class Network:
    """Feed-forward layer stack with explicit, cached backward passes.

    Shape compatibility between consecutive layers is validated at build
    time; the parameter set is fixed afterwards. ``input_shape`` is a
    tuple. ``forward`` takes flat rows, (B, prod(input_shape)), as a
    dataset holds them. The layers before the first Dense (Conv2D, ReLU,
    MaxPool2x2, Flatten) form the blocked prefix of a forward-only pass; a
    network that starts with Dense has none. A ReLU after any layer other
    than Flatten works in place, on an array an earlier layer made; the
    caller's batch is never written (see the module docstring).
    """

    def __init__(self, specs, input_shape, seed=0):
        self.specs = tuple(specs)
        if not self.specs:
            raise ConfigError("network has no layers")
        self.input_shape = tuple(int(s) for s in input_shape)
        if any(s < 1 for s in self.input_shape):
            raise ConfigError(f"input shape must be positive, got {self.input_shape}")
        self._flat_width = math.prod(self.input_shape)
        shape, self.layers, owned = self.input_shape, [], False
        for i, spec in enumerate(self.specs):
            out_shape = _out_shape(spec, shape, i)
            self.layers.append(_materialize(spec, seed, i, shape, owned))
            owned = owned or not isinstance(spec, Flatten)  # Flatten returns a view of its input
            shape = out_shape
        self.output_shape = shape
        self._params = [p for layer in self.layers for p in layer.params()]
        self._block_end = next((i for i, spec in enumerate(self.specs) if isinstance(spec, Dense)),
                             len(self.specs))
        self._forward_done = False

    @property
    def out_dim(self) -> int:
        if len(self.output_shape) != 1:
            raise ConfigError(f"network output {self.output_shape} is not flat; add Flatten/Dense")
        return self.output_shape[0]

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        """``parameters()`` with their names, ``layer <index> w`` or ``b``."""
        return [(f"layer {i} {name}", p) for i, layer in enumerate(self.layers)
                for name, p in zip("wb", layer.params())]

    def first_non_finite(self, batch):
        """A forward-only pass over the whole of ``batch``, flat rows as
        ``forward`` takes them, one layer at a time; it stops at the first
        layer whose output holds a NaN or an inf. Returns that layer, as
        ``layer <index> (<kind>), largest |parameter| <value>``, or None,
        and the last output."""
        x = np.asarray(batch, dtype=np.float64).reshape((-1,) + self.input_shape)
        for i, (spec, layer) in enumerate(zip(self.specs, self.layers)):
            x = layer.forward(x, False)
            if not np.isfinite(x).all():
                largest = max((np.abs(p.data).max() for p in layer.params()), default=0.0)
                return f"layer {i} ({type(spec).__name__}), largest |parameter| {largest:.3g}", x
        return None, x

    def forward(self, batch, cache=True):
        """The network's output for ``batch``, (B, prod(input_shape)) flat
        rows, which a multi-axis input shape sees as (B, *input_shape).

        With ``cache`` every layer keeps what its backward needs. Without
        it the pass is forward-only: no layer keeps anything, the blocked
        prefix runs ``ROW_BLOCK`` rows at a time, and the first Dense and
        the layers after it run on the whole batch, because a Dense row's
        bits depend on how many rows its matmul holds. Both give the same
        bits. A ``backward`` after a forward-only pass is a UsageError.

        A forward-only pass rebinds nothing a layer holds (the caches stay
        as the last training pass left them), so forward-only passes over
        separate batches may run on separate threads at once
        (``for_each_chunk``). Their one shared write is ``_forward_done``,
        and each of them writes the same False.
        """
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self._flat_width:
            raise ConfigError(f"batch shape {batch.shape} is not rows of {self._flat_width} "
                              f"values, the input {self.input_shape} flat")
        if batch.shape[0] < 1:
            raise ConfigError("empty batch")
        if len(self.input_shape) > 1:
            batch = batch.reshape((batch.shape[0],) + self.input_shape)
        self._forward_done = False
        if cache or not self._block_end:
            out = _run(self.layers, batch, cache)
        else:
            prefix = self.layers[:self._block_end]
            blocks = [_run(prefix, batch[start:start + ROW_BLOCK], False)
                      for start in range(0, batch.shape[0], ROW_BLOCK)]
            out = _run(self.layers[self._block_end:], np.concatenate(blocks), False)
        self._forward_done = cache
        return out

    def backward(self, dout, input_grad=True):
        """Propagate an output gradient into every parameter gradient.

        Returns the input gradient; without ``input_grad`` the first layer
        skips computing it and None is returned.
        """
        if not self._forward_done:
            raise UsageError("Network.backward() before forward()")
        for layer in self.layers[:0:-1]:
            dout = layer.backward(dout)
        return self.layers[0].backward(dout, input_grad)


# ---------------------------------------------------------------------------
# Losses
#
# The per-step functions reduce with the ufuncs that ``.sum()``, ``.max()``
# and ``np.mean`` call, minus their Python wrappers. Numpy sums a row
# narrower than ``PAIRWISE`` as the running sum from +0.0, which ``row_sum``
# takes one column at a time, with the same bits; wider rows keep numpy's
# pairwise reduce. A row max takes no order (a NaN propagates either way),
# so ``softmax`` sweeps it over class-major rows.

PAIRWISE = 8
# softmax runs class-major from PAIRWISE to SWEEP_CLASSES classes once a batch
# holds SWEEP_ROWS rows. Class-major time over row-path time, one call in
# isolation at 1 BLAS thread (numpy 2.4.6, a 2-core x86-64 VM):
#   classes    64 rows  128 rows  256 rows
#        8      0.88      0.67      0.48
#       10      1.12      0.82      0.64
#       16      1.10      0.75      0.62
#       32      1.11      0.93      0.86
#      100      1.54      1.27      1.11
# Training batches of 64 keep the row path.
SWEEP_CLASSES = 16
SWEEP_ROWS = 128


def row_sum(x):
    """``np.add.reduce(x, axis=-1)``, bit for bit, as a C-ordered array."""
    if x.shape[-1] >= PAIRWISE:
        return np.add.reduce(x, axis=-1)
    total = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def _pairwise_columns(z):
    """Numpy's sum of each C-ordered row of ``z.T``, bit for bit, from a
    C-ordered (n, B) ``z`` with ``PAIRWISE <= n <= 128``.

    Numpy sums such a row in one block: eight accumulators start from
    its first eight values, each later full group of eight adds into them,
    they are combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    the values left over are added in order, and the reduce adds that to
    its start, +0.0. Here each step is one sweep over the batch.
    """
    n = z.shape[0]
    full = n - n % 8
    r = z[:8] + z[8:16] if full > 8 else z[:8]
    for i in range(16, full, 8):
        r += z[i:i + 8]
    r = r[0::2] + r[1::2]
    total = r[0::2] + r[1::2]
    total = total[0] + total[1]
    for j in range(full, n):
        total += z[j]
    total += 0.0
    return total


def softmax(logits):
    """Row-wise softmax with max subtraction; rows sum to 1 within 1e-12.

    Below ``PAIRWISE`` classes, and from ``SWEEP_ROWS`` rows on up to
    ``SWEEP_CLASSES`` classes, it runs class-major: the max, ``exp`` and
    the divide sweep the batch once per class, and the sum keeps numpy's
    order (``row_sum`` or ``_pairwise_columns``). Other shapes run row by
    row. Both paths give the same bits, so the path is a matter of speed.
    """
    rows, classes = logits.shape
    if not (classes < PAIRWISE or (classes <= SWEEP_CLASSES and rows >= SWEEP_ROWS)):
        z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=1, keepdims=True)
        return z
    z = logits.T.copy()  # one contiguous row per class
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=z)
    z /= row_sum(z.T) if classes < PAIRWISE else _pairwise_columns(z)
    return np.ascontiguousarray(z.T)


def softmax_backward(probs, gprobs):
    """Apply the softmax Jacobian to a gradient in probability space."""
    return probs * (gprobs - row_sum(gprobs * probs)[:, None])


def check_labels(labels, n_classes, what="labels"):
    """``labels`` as an array, after checking that each lies in [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"{what} must lie in [0, {n_classes}), got range "
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
    """Mean negative log likelihood, clamped at EPS, of labels already known
    to lie in range; returns the picked entries ``probs[i, labels[i]]`` too."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return picked, float(-(np.add.reduce(np.log(np.maximum(picked, EPS))) / picked.size))


def _nll_grad(probs, labels, picked):
    """Gradient of the ``_picked_nll`` loss wrt the probabilities, for
    checked labels and their picked entries ``probs[i, labels[i]]``."""
    b = probs.shape[0]
    g = np.zeros(probs.shape)
    g[np.arange(b), labels] = log_grad_coef(picked, b)
    return g


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
    The hyperparameters are not checked here but in ``TrainSettings``:
    lr > 0, momentum in [0, 1) and weight_decay >= 0.
    """

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
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
