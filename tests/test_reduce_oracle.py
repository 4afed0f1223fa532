"""The class-axis sums of the losses against the per-row reduces in
``nnref``: bit equality.

``nn.row_sum`` sums a row narrower than ``nn.PAIRWISE`` one column at a
time and leaves a wider row to numpy's reduce; ``softmax`` takes its row
max over class-major rows, and from ``nn.SWEEP_ROWS`` rows on, up to
``nn.SWEEP_CLASSES`` classes, sums them in numpy's pairwise order too. On
either side of each seam every result must keep the bits of the reduce it
replaced, signed zeros included, with its NaNs in the same places.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import nnref
from noiseattn import EPS, NAModel, soft_nll_loss, softmax, softmax_backward
from noiseattn.attention import unit_outputs
from noiseattn.nn import PAIRWISE, SWEEP_CLASSES, SWEEP_ROWS, _pairwise_columns, row_sum
from noiseattn.recursion import soft_attention_outputs

MAX_VALUES = 200_000  # rows are trimmed so that no array holds more values
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.inf, -np.inf, np.nan,
                     1.0, -1.0, 1e308, -1e308])
CASES = settings(max_examples=60, derandomize=True, database=None, deadline=None)
ROWS = st.integers(min_value=1, max_value=5000)
CLASSES = st.integers(min_value=1, max_value=300)
MIX = st.integers(min_value=0, max_value=3)
SEED = st.integers(min_value=0, max_value=2**32 - 1)


def values(rng, shape, mix):
    """Normal values (mix 0), magnitudes over 40 decades (1), only the
    special values (2), or normal values with 10% of them special (3)."""
    x = rng.normal(size=shape)
    if mix == 1:
        x *= 10.0 ** rng.integers(-20, 20, size=shape)
    elif mix == 2:
        x = rng.choice(SPECIALS, size=shape)
    elif mix == 3:
        hit = rng.random(size=shape) < 0.1
        x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x


def assert_same_bits(actual, expected):
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


def test_the_rule_changes_at_eight_values():
    """Below ``PAIRWISE`` numpy's sum is the running sum from +0.0, so a
    row of -0.0 sums to +0.0; the rule ``row_sum`` relies on."""
    assert PAIRWISE == 8
    rng = np.random.default_rng(0)
    for classes in range(1, PAIRWISE):
        x = values(rng, (64, classes), 1)
        running = np.zeros(64)
        for j in range(classes):
            running += x[:, j]
        assert_same_bits(np.add.reduce(x, axis=1), running)
    assert np.signbit(np.add.reduce(np.full((1, 3), -0.0), axis=1)).sum() == 0


def pairwise_block(x):
    """Numpy's sum of each row of 8 to 128 values, written out: eight
    accumulators, later full groups of eight added into them, combined in
    pairs, the rest added in order, all added to +0.0."""
    n = x.shape[1]
    full = n - n % 8
    r = [x[:, k].copy() for k in range(8)]
    for i in range(8, full, 8):
        for k in range(8):
            r[k] += x[:, i + k]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(full, n):
        total += x[:, j]
    return 0.0 + total


def test_numpy_sums_eight_to_128_values_in_one_pairwise_block():
    """The rule ``_pairwise_columns`` follows, checked against numpy itself
    at every width it covers, so a numpy that sums otherwise fails here by
    name. Each batch holds a row of -0.0 (it sums to +0.0, as at every
    width from 7 to 129) and rows with a NaN, an inf, or both infinities."""
    rng = np.random.default_rng(1)
    for classes in range(PAIRWISE, 129):
        x = values(rng, (64, classes), 1)
        x[0] = -0.0
        x[1, classes // 2] = np.nan
        x[2, -1] = np.inf
        x[3, [0, -1]] = np.inf, -np.inf
        x[4, :] = -np.inf
        with np.errstate(invalid="ignore"):
            want = np.add.reduce(x, axis=1)
            assert_same_bits(pairwise_block(x), want)
            assert_same_bits(_pairwise_columns(np.ascontiguousarray(x.T)), want)
        assert not np.signbit(want[0])
    for classes in (7, 129):
        assert not np.signbit(np.add.reduce(np.full((1, classes), -0.0), axis=1)).any()


@CASES
@given(rows=ROWS, classes=CLASSES, mix=MIX, seed=SEED)
@example(rows=5000, classes=3, mix=3, seed=0)
@example(rows=1, classes=300, mix=2, seed=1)
@example(rows=4096, classes=PAIRWISE - 1, mix=2, seed=2)
@example(rows=4096, classes=PAIRWISE, mix=2, seed=3)
@example(rows=SWEEP_ROWS - 1, classes=PAIRWISE - 1, mix=3, seed=4)
@example(rows=SWEEP_ROWS - 1, classes=PAIRWISE, mix=3, seed=5)
@example(rows=SWEEP_ROWS - 1, classes=SWEEP_CLASSES, mix=2, seed=6)
@example(rows=SWEEP_ROWS - 1, classes=SWEEP_CLASSES + 1, mix=3, seed=7)
@example(rows=SWEEP_ROWS, classes=PAIRWISE - 1, mix=2, seed=8)
@example(rows=SWEEP_ROWS, classes=PAIRWISE, mix=3, seed=9)
@example(rows=SWEEP_ROWS, classes=SWEEP_CLASSES, mix=3, seed=10)
@example(rows=SWEEP_ROWS, classes=SWEEP_CLASSES + 1, mix=2, seed=11)
@example(rows=SWEEP_ROWS + 1, classes=PAIRWISE - 1, mix=0, seed=12)
@example(rows=SWEEP_ROWS + 1, classes=PAIRWISE, mix=2, seed=13)
@example(rows=SWEEP_ROWS + 1, classes=SWEEP_CLASSES, mix=1, seed=14)
@example(rows=SWEEP_ROWS + 1, classes=SWEEP_CLASSES + 1, mix=3, seed=15)
def test_softmax_and_its_backward(rows, classes, mix, seed):
    rows = min(rows, MAX_VALUES // classes)
    rng = np.random.default_rng(seed)
    logits, probs, gprobs = (values(rng, (rows, classes), mix) for _ in range(3))
    with np.errstate(all="ignore"):
        out = softmax(logits)
        assert out.flags.c_contiguous
        assert_same_bits(out, nnref.softmax(logits))
        assert_same_bits(softmax_backward(out, gprobs), nnref.softmax_backward(out, gprobs))
        assert_same_bits(softmax_backward(probs, gprobs), nnref.softmax_backward(probs, gprobs))
        for x in (gprobs, np.asfortranarray(gprobs)):
            total = row_sum(x)
            assert total.flags.c_contiguous
            assert_same_bits(total, np.add.reduce(x, axis=-1))


@CASES
@given(rows=ROWS, classes=CLASSES, units=st.integers(min_value=1, max_value=4), mix=MIX,
       seed=SEED)
@example(rows=5000, classes=6, units=3, mix=3, seed=0)
@example(rows=3, classes=300, units=2, mix=2, seed=1)
def test_soft_loss_and_routing_scores(rows, classes, units, mix, seed):
    rows = min(rows, MAX_VALUES // (classes * units))
    rng = np.random.default_rng(seed)
    probs, supervisions = (values(rng, (rows, classes), mix) for _ in range(2))
    stacked = values(rng, (units, rows, classes), mix)
    with np.errstate(all="ignore"):
        assert_same_bits(soft_nll_loss(probs, supervisions),
                         nnref.soft_nll_loss(probs, supervisions))
        scores = row_sum(supervisions[None, :, :] * np.log(np.maximum(stacked, EPS)))
        assert_same_bits(scores, nnref.soft_route_scores(stacked, supervisions))


@CASES
@given(rows=ROWS, classes=st.integers(min_value=2, max_value=300),
       units=st.integers(min_value=1, max_value=4), mix=MIX, seed=SEED)
@example(rows=4096, classes=3, units=3, mix=0, seed=0)
def test_soft_routing_picks_the_reference_units(rows, classes, units, mix, seed):
    rows = min(rows, MAX_VALUES // (classes * units))
    rng = np.random.default_rng(seed)
    model = NAModel(classes)
    for _ in range(units - 1):
        model.add_unit(jitter=0.5, rng=rng)
    with np.errstate(all="ignore"):
        probs = softmax(values(rng, (rows, classes), mix))
        supervisions = values(rng, (rows, classes), mix)
        sel, out = soft_attention_outputs(probs, supervisions, model)
        stacked = unit_outputs(probs, model)
        want = nnref.soft_route_scores(stacked, supervisions).argmax(axis=0)
    assert np.array_equal(sel, want)
    assert_same_bits(out, stacked[want, np.arange(rows), :])
