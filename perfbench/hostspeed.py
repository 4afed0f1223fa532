"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same single-threaded code runs up to about 1.6x
slower, in CPU time as well as wall time, for stretches of seconds to
minutes. A run of the benchmark that falls wholly into a slow stretch then
reads slow whatever its estimator. So ``run.py`` times this kernel just
before and after each timed span and reports the span in reference
seconds: ``wall * REFERENCE_S / kernel``, where ``kernel`` is the mean of
the two kernel times around it. A reference second is a wall second on a
host where the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code, not the program's, so a change to
``noiseattn`` cannot move it. It has the two kinds of work the workloads
do: plain-numpy SGD steps of a small MLP at batch 64 (interpreter overhead
and small matmuls) and a forward pass over 4096-row chunks (large matmuls
and elementwise passes over memory). Scaled by the sum of both, the
spread (IQR / median) of back-to-back ``mlp_small_batch`` repeats fell
from 16% to 6%, more than when scaled by either part alone.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.02  # the kernel on a quiet 2-core x86-64 VM
SGD_STEPS = 120
SGD_SHAPE = (64, 20, 64, 10)  # batch, input, hidden, classes
CHUNK_PASSES = 3
CHUNK_SHAPE = (4096, 24, 64, 32)  # rows, input, hidden, output

_inputs = None


def _make_inputs():
    import numpy as np  # not at module level: setup_probe times the first numpy import
    rng = np.random.default_rng(0)
    batch, dim, hidden, classes = SGD_SHAPE
    rows, c_in, c_hidden, c_out = CHUNK_SHAPE
    return {
        "np": np,
        "x": rng.standard_normal((batch, dim)),
        "y": rng.integers(0, classes, batch),
        "w1": 0.1 * rng.standard_normal((dim, hidden)),
        "w2": 0.1 * rng.standard_normal((hidden, classes)),
        "chunk": rng.standard_normal((rows, c_in)),
        "c1": 0.1 * rng.standard_normal((c_in, c_hidden)),
        "c2": 0.1 * rng.standard_normal((c_hidden, c_out)),
    }


def _sgd_steps(np, x, y, w1, w2):
    rows = np.arange(len(x))
    for _ in range(SGD_STEPS):
        h = x @ w1
        a = np.maximum(h, 0.0)
        z = a @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        p /= len(x)
        ga = p @ w2.T
        ga[h <= 0.0] = 0.0
        for w, g in ((w2, a.T @ p), (w1, x.T @ ga)):
            w -= 0.05 * g


def _chunk_passes(np, chunk, c1, c2):
    for _ in range(CHUNK_PASSES):
        z = np.maximum(np.maximum(chunk @ c1, 0.0) @ c2, 0.0)
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)


def kernel_s() -> float:
    """Wall seconds of the fixed kernel; the same work on every call."""
    global _inputs
    if _inputs is None:
        _inputs = _make_inputs()
    k = _inputs
    w1, w2 = k["w1"].copy(), k["w2"].copy()
    started = time.perf_counter()
    _sgd_steps(k["np"], k["x"], k["y"], w1, w2)
    _chunk_passes(k["np"], k["chunk"], k["c1"], k["c2"])
    return time.perf_counter() - started


def to_reference(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """``wall_s`` in reference seconds, given the kernel times around it."""
    return wall_s * REFERENCE_S * 2.0 / (kernel_before + kernel_after)
