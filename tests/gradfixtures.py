"""Seeded architecture/loss fixtures for finite-difference gradient checks.

Central differences at h = 1e-6 carry a rounding-noise floor of roughly
eps * |loss| / (2h) ~ 1e-10 per entry, so fixtures keep supervisions,
unit entries, and routing probabilities bounded away from zero; gradient
entries then sit far above the noise floor and the relative-error
tolerance measures gradient correctness rather than oracle noise.
"""

import numpy as np

from noiseattn import (Conv2D, Dense, Flatten, MaxPool2x2, NAModel, Network, ReLU,
                       softmax, softmax_backward,
                       nll_loss, soft_nll_loss)
from noiseattn.attention import na_loss_terms, project_column_stochastic, routed_backward
from noiseattn.recursion import soft_attention_outputs, soft_out_grad
from oracles import decay_penalty, na_backward, nll_loss_grad, zero_grad


def grad_check(params, loss_fn, h=1e-6) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn()`` must return the scalar loss and leave freshly computed
    gradients in every Parameter (zeroing them first). Relative error is
    |a - n| / max(|a|, |n|, 1e-12), maximized over all parameter entries.
    """
    loss_fn()
    analytic = np.concatenate([p.grad.ravel().copy() for p in params])
    numeric = np.empty_like(analytic)
    pos = 0
    for p in params:
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_fn()
            flat[j] = orig - h
            lm = loss_fn()
            flat[j] = orig
            numeric[pos] = (lp - lm) / (2.0 * h)
            pos += 1
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check_classifier(net: Network, batch, labels, h=1e-6) -> float:
    """Gradient check of the softmax + NLL classification loss."""

    def loss_fn():
        zero_grad(net)
        probs = softmax(net.forward(batch))
        loss = nll_loss(probs, labels)
        net.backward(softmax_backward(probs, nll_loss_grad(probs, labels)))
        return loss

    return grad_check(net.parameters(), loss_fn, h)

_ARCHS = [
    # (specs factory, input shape, class count)
    (lambda: [Dense(3, 8), ReLU(), Dense(8, 4)], (3,), 4),
    (lambda: [Dense(4, 10), ReLU(), Dense(10, 6), ReLU(), Dense(6, 3)], (4,), 3),
    (lambda: [Conv2D(1, 2, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(8, 3)], (6, 6, 1), 3),
    (lambda: [Conv2D(2, 3, 3, stride=2), ReLU(), Flatten(), Dense(12, 4)], (5, 5, 2), 4),
]


def _random_units(model, rng, count):
    for i in range(count):
        unit = model.add_unit(decay=0.05 if i else 0.0)
        raw = 0.4 + rng.uniform(size=(model.n_classes,) * 2) + np.eye(model.n_classes)
        unit.q.data[...] = project_column_stochastic(raw)


def build_fixture(seed):
    """Returns (params, loss_fn, description) for one seeded configuration."""
    rng = np.random.default_rng(seed)
    make_specs, input_shape, c = _ARCHS[seed % len(_ARCHS)]
    net = Network(make_specs(), input_shape, seed=(seed, 77))
    batch = 4 + seed % 3
    x = rng.normal(size=(batch,) + input_shape)
    path = seed % 3  # 0 plain, 1 routed hard, 2 soft

    if path == 0:
        labels = rng.integers(0, c, size=batch)
        params = net.parameters()

        def loss_fn():
            for p in params:
                p.grad[...] = 0.0
            probs = softmax(net.forward(x))
            loss = nll_loss(probs, labels)
            net.backward(softmax_backward(probs, nll_loss_grad(probs, labels)))
            return loss

        return params, loss_fn, f"plain/{len(net.specs)}-layer"

    model = NAModel(c)
    _random_units(model, rng, 2)
    params = net.parameters() + model.learnable_params()

    if path == 1:
        labels = rng.integers(0, c, size=batch)

        def loss_fn():
            for p in params:
                p.grad[...] = 0.0
            probs = softmax(net.forward(x))
            sel, out, picked, loss = na_loss_terms(probs, labels, model)
            gp = na_backward(probs, labels, model, terms=(sel, out, picked))
            net.backward(softmax_backward(probs, gp))
            return loss + decay_penalty(model)

        return params, loss_fn, f"routed/{len(net.specs)}-layer"

    sup = rng.dirichlet(3.0 * np.ones(c), size=batch)
    sup = (sup + 0.15) / (1.0 + 0.15 * c)  # keep rows bounded away from zero

    def loss_fn():
        for p in params:
            p.grad[...] = 0.0
        probs = softmax(net.forward(x))
        sel, out = soft_attention_outputs(probs, sup, model)
        loss = soft_nll_loss(out, sup)
        gp = routed_backward(probs, sel, soft_out_grad(out, sup), model)
        net.backward(softmax_backward(probs, gp))
        return loss + decay_penalty(model)

    return params, loss_fn, f"soft/{len(net.specs)}-layer"
