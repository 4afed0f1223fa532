"""Network core: forward passes, losses, SGD, and gradient checking."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from noiseattn import (AttributeSpec, ConfigError, DataError, Dense, Conv2D, Flatten,
                       MaxPool2x2, MultiHeadNetwork, NAModel, Network, OneHead, Parameter, ReLU,
                       SGD, Trainer, TrainSettings, UsageError, load_snapshot, save_snapshot,
                       snapshot_probs, softmax, softmax_backward)
from noiseattn.harness import evaluate
from noiseattn.multihead import _errors
from noiseattn.nn import EPS, EVAL_CHUNK, LayerSpec, _ReLULayer, for_each_chunk
from gradfixtures import grad_check, grad_check_classifier
from on_file import on_file
from oracles import n_params, nll_loss, nll_loss_grad, zero_grad
from peaks import traced_peak


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
        # flat rows are reshaped to the declared input shape
        flat = np.random.default_rng(2).normal(size=(4, 36))
        assert net.forward(flat).shape == (4, 2)

    @pytest.mark.parametrize("shape", [(4, 6, 6, 1), (4, 35), (36,), (4, 1, 36)])
    def test_only_flat_rows_of_the_input_width_are_taken(self, shape):
        """A batch shaped like the input, or rows of another width, is a
        ConfigError; the forward takes (B, prod(input_shape)) rows only."""
        net = Network([Conv2D(1, 3, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(12, 2)],
                      (6, 6, 1), seed=0)
        with pytest.raises(ConfigError, match=r"^batch shape .* is not rows of 36 values, "
                                              r"the input \(6, 6, 1\) flat$"):
            net.forward(np.zeros(shape))

    def test_backward_before_forward_is_usage_error(self):
        net = Network([Dense(2, 2)], (2,), seed=0)
        with pytest.raises(UsageError):
            net.backward(np.zeros((1, 2)))


class TestInputGrad:
    """``backward(dy, input_grad=False)``: no input gradient, the same
    parameter gradients, and the trainer never asks for the discarded one."""

    @pytest.mark.parametrize("specs, shape", [
        ([Dense(3, 6), ReLU(), Dense(6, 2)], (3,)),
        ([ReLU(), Dense(3, 2)], (3,)),
        ([MaxPool2x2(), Flatten(), Dense(18, 2)], (6, 6, 2)),
        ([Flatten(), Dense(12, 2)], (2, 3, 2)),
    ], ids=["dense", "relu", "pool", "flatten"])
    def test_first_layer_returns_none_and_keeps_parameter_grads(self, specs, shape):
        net = Network(specs, shape, seed=8)
        rng = np.random.default_rng(9)
        dy = rng.normal(size=(5, 2))
        net.forward(rng.normal(size=(5, math.prod(shape))))
        assert net.backward(dy).shape == (5,) + shape
        full = [p.grad.copy() for p in net.parameters()]
        zero_grad(net)
        assert net.backward(dy, input_grad=False) is None
        for p, grad in zip(net.parameters(), full):
            assert p.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("multi", [False, True], ids=["network", "multihead"])
    def test_trainer_skips_the_trunk_input_gradient(self, multi, monkeypatch):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(10, 3))
        if multi:
            trunk = Network([Dense(3, 4), ReLU()], (3,), seed=1)
            net = MultiHeadNetwork(trunk, AttributeSpec([2, 3]), seed=1)
            labels = np.stack([rng.integers(0, 2, 10), rng.integers(0, 3, 10)], axis=1)
        else:
            trunk = Network([Dense(3, 4), ReLU(), Dense(4, 2)], (3,), seed=1)
            net = OneHead(trunk)
            labels = rng.integers(0, 2, 10)
        flags, dfeats = [], []
        first_backward = trunk.layers[0].backward

        def first_spy(dy, input_grad=True):
            flags.append(input_grad)
            return first_backward(dy, input_grad)

        monkeypatch.setattr(trunk.layers[0], "backward", first_spy)
        for head in getattr(net, "heads", []):
            def head_spy(dout, input_grad=True, head_backward=head.backward):
                dfeats.append(head_backward(dout, input_grad))
                return dfeats[-1]

            monkeypatch.setattr(head, "backward", head_spy)
        Trainer(net, TrainSettings(batch_size=4), seed=2).train_epoch(x, labels)
        assert flags == [False] * 3  # batches of 4, 4 and 2 rows
        assert [d.shape for d in dfeats] == ([(4, 4)] * 4 + [(2, 4)] * 2 if multi else [])

    def test_network_without_layers_is_rejected(self):
        with pytest.raises(ConfigError, match="network has no layers"):
            Network([], (3,))


# Conv networks with stride 2, 1-4 input channels, kernels 2-5 and stacked convs.
CONV_NETS = {
    "conv_patches": ([Conv2D(1, 8, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(200, 32), ReLU(),
                      Dense(32, 4)], (12, 12, 1)),
    "stride2": ([Conv2D(2, 4, 2, stride=2), ReLU(), Flatten(), Dense(64, 3)], (9, 9, 2)),
    "k5_pool": ([Conv2D(3, 5, 5), ReLU(), MaxPool2x2(), Flatten(), Dense(20, 3)], (8, 8, 3)),
    "stacked": ([Conv2D(4, 6, 3), ReLU(), Conv2D(6, 4, 2, stride=2), ReLU(), Flatten(),
                 Dense(64, 5), ReLU(), Dense(5, 2)], (11, 11, 4)),
    "k4_no_dense": ([Conv2D(1, 3, 4), ReLU(), MaxPool2x2(), Flatten()], (9, 11, 1)),
}
# A conv layer's pixel table (``_pix``) is not among these: it is built from
# the input shape when the layer is, no pass writes it, and forward-only
# passes read it as training steps do.
BACKWARD_CACHES = ("_x", "_cols", "_xshape", "_mask", "_idx")


class TestForwardOnly:
    """``forward(batch, cache=False)``: the caching forward's bits, with no
    backward cache kept and the layers before the first Dense in row blocks."""

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513, 2049])
    @pytest.mark.parametrize("name", sorted(CONV_NETS))
    def test_equals_the_caching_forward_and_keeps_no_cache(self, name, rows):
        specs, shape = CONV_NETS[name]
        x = np.random.default_rng(rows).normal(size=(rows, math.prod(shape)))
        fresh = Network(specs, shape, seed=4)
        out = fresh.forward(x, cache=False)
        assert [a for layer in fresh.layers for a in BACKWARD_CACHES if hasattr(layer, a)] == []
        assert out.tobytes() == Network(specs, shape, seed=4).forward(x).tobytes()

    @pytest.mark.parametrize("rows", [255, 513])
    def test_multihead_over_a_conv_trunk(self, rows):
        specs, shape = CONV_NETS["stacked"]
        x = np.random.default_rng(rows).normal(size=(rows, math.prod(shape)))
        net = MultiHeadNetwork(Network(specs[:-2], shape, seed=5), AttributeSpec([3, 4]), seed=6)
        cached = net.forward(x)
        blocked = net.forward(x, cache=False)
        assert [p.tobytes() for p in blocked] == [p.tobytes() for p in cached]

    def test_backward_after_a_forward_only_pass_is_usage_error(self):
        specs, shape = CONV_NETS["conv_patches"]
        net = Network(specs, shape, seed=0)
        x = np.zeros((3, math.prod(shape)))
        net.forward(x)
        net.forward(x, cache=False)
        with pytest.raises(UsageError):
            net.backward(np.zeros((3, 4)))
        multi = MultiHeadNetwork(Network(specs, shape, seed=0), AttributeSpec([2, 3]))
        multi.forward(x)
        multi.forward(x, cache=False)
        with pytest.raises(UsageError):
            multi.backward([np.zeros((3, 2)), np.zeros((3, 3))])


class TestPixelTable:
    """Each conv layer's one pixel table serves every batch size, caching
    and forward-only passes alike, and the network ``load_snapshot``
    rebuilds: every output and gradient has the bytes of a fresh network."""

    PASSES = [(64, True), (8, False), (257, True), (64, False), (8, True), (257, False)]

    @pytest.mark.parametrize("name", ["conv_patches", "stacked"])
    def test_reused_tables_give_the_bytes_of_a_fresh_network(self, name, tmp_path):
        specs, shape = CONV_NETS[name]
        rng = np.random.default_rng(12)
        net = Network(specs, shape, seed=4)
        classes = net.out_dim
        save_snapshot(tmp_path / "net.nam", OneHead(net), [NAModel(classes)])
        loaded = load_snapshot(tmp_path / "net.nam")[0].trunk
        tables = [(layer._pix, layer._pix.copy()) for used in (net, loaded)
                  for layer in used.layers if hasattr(layer, "_pix")]
        assert len(tables) == 2 * sum(isinstance(spec, Conv2D) for spec in specs)
        for used in (net, loaded):
            for rows, cache in self.PASSES:
                x = rng.normal(size=(rows, math.prod(shape)))
                fresh = Network(specs, shape, seed=4)
                out = used.forward(x, cache)
                assert out.tobytes() == fresh.forward(x, cache).tobytes()
                if cache:
                    dy = rng.normal(size=out.shape)
                    zero_grad(used)
                    assert used.backward(dy).tobytes() == fresh.backward(dy).tobytes()
                    assert ([p.grad.tobytes() for p in used.parameters()]
                            == [p.grad.tobytes() for p in fresh.parameters()])
        for table, first in tables:
            assert not table.flags.writeable
            assert table.tobytes() == first.tobytes()


class TestReLUOwnership:
    """A ReLU writes into its input only when an earlier layer other than
    Flatten made it; the caller's batch is never written."""

    SHAPE = (3, 4, 2)

    @pytest.mark.parametrize("specs, shape", [
        ([ReLU(), Dense(24, 3)], (24,)),
        ([ReLU(), Flatten(), Dense(24, 3)], SHAPE),
        ([Flatten(), ReLU(), Dense(24, 3)], SHAPE),
        ([Flatten(), Flatten(), ReLU(), ReLU(), Dense(24, 3)], SHAPE),
    ], ids=["relu", "relu_flatten", "flatten_relu", "flatten_twice"])
    def test_the_callers_batch_is_left_as_it_was(self, specs, shape):
        net = Network(specs, shape, seed=3)
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(5, math.prod(shape)))
        before = batch.tobytes()
        for cache in (True, False):
            net.forward(batch, cache)
            assert batch.tobytes() == before
        net.first_non_finite(batch)
        assert batch.tobytes() == before

    @pytest.mark.parametrize("specs, shape, in_place", [
        ([ReLU(), Flatten(), ReLU(), Dense(24, 3), ReLU()], SHAPE, [False, True, True]),
        ([Flatten(), ReLU(), ReLU(), Dense(24, 3)], SHAPE, [False, True]),
        ([Conv2D(2, 3, 2), ReLU(), MaxPool2x2(), ReLU(), Flatten(), ReLU()], (5, 5, 2),
         [True] * 3),
    ])
    def test_which_relus_work_in_place(self, specs, shape, in_place):
        net = Network(specs, shape, seed=3)
        assert [layer.in_place for layer in net.layers
                if isinstance(layer, _ReLULayer)] == in_place

    @pytest.mark.parametrize("cache", [True, False])
    def test_in_place_equals_the_product_bit_for_bit(self, cache):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                      2.2e-308, -2.2e-308, 1.5, -1.5, 1e308, -1e308])
        x = np.concatenate([x, np.random.default_rng(4).normal(size=50)])
        arg = x.copy()
        with np.errstate(invalid="ignore"):  # inf * 0
            out = _ReLULayer(in_place=True).forward(arg, cache)
            assert out is arg
            assert out.tobytes() == (x * (x > 0)).tobytes()
            assert _ReLULayer().forward(x, cache).tobytes() == out.tobytes()

    # One network per layer kind; each holds that kind after a layer that
    # makes a new array.
    KINDS = {
        Dense: ([Dense(6, 5), Dense(5, 4)], (6,)),
        Conv2D: ([Conv2D(2, 3, 2), Conv2D(3, 2, 2)], (5, 5, 2)),
        ReLU: ([Dense(6, 5), ReLU(), ReLU()], (6,)),
        MaxPool2x2: ([Conv2D(2, 3, 2), MaxPool2x2()], (5, 5, 2)),
        Flatten: ([Conv2D(2, 3, 2), Flatten()], (5, 5, 2)),
    }

    def test_the_guard_covers_every_layer_kind(self):
        assert set(self.KINDS) == set(LayerSpec.__args__)

    @pytest.mark.parametrize("kind", list(KINDS), ids=lambda kind: kind.__name__)
    def test_no_layer_keeps_its_output(self, kind):
        """An in-place ReLU overwrites the output of the layer before it, so
        no layer may keep its output (or a view of it) for backward."""
        specs, shape = self.KINDS[kind]
        net = Network(specs, shape, seed=5)
        x = np.random.default_rng(5).normal(size=(4,) + shape)
        for layer in net.layers:
            out = layer.forward(x)
            kept = [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
            assert not any(np.shares_memory(v, out) for v in kept)
            x = out


class TestForwardOnlyMemory:
    """The forward-only callers over 2000 rows of the conv_patches network
    stay far below the 52 MB that one caching pass over the rows takes,
    and evaluation holds one chunk's activations at a time."""

    LIMIT = 16 * 2**20

    @pytest.fixture
    def setup(self):
        specs, shape = CONV_NETS["conv_patches"]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, math.prod(shape)))
        y = rng.integers(0, 4, 2000)
        trainer = Trainer(OneHead(Network(specs, shape, seed=1)), TrainSettings(), seed=2)
        return trainer, x, y

    def test_errors(self, setup):
        trainer, x, y = setup
        assert traced_peak(lambda: _errors(trainer.net, x, y))[1] < self.LIMIT

    def test_val_loss(self, setup):
        trainer, x, y = setup
        assert traced_peak(lambda: trainer.val_loss(x, y))[1] < self.LIMIT

    def test_snapshot_probs(self, setup):
        trainer, x, y = setup
        peak = traced_peak(lambda: snapshot_probs(trainer.net, trainer.na_models, x, y))[1]
        assert peak < self.LIMIT

    # One chunk of a 20-64-10 MLP: its hidden activation and ReLU mask, and
    # its logits and probabilities.
    CHUNK_BYTES = EVAL_CHUNK * (64 * 8 + 64 + 2 * 10 * 8)

    @staticmethod
    def two_chunks():
        net = OneHead(Network([Dense(20, 64), ReLU(), Dense(64, 10)], (20,), seed=6))
        rng = np.random.default_rng(6)
        n = 2 * EVAL_CHUNK
        return net, rng.normal(size=(n, 20)), rng.integers(0, 10, n)

    def test_evaluate_holds_one_chunk_of_activations(self, monkeypatch):
        """The evaluator's chunk loop, ``_errors`` of a 20-64-10 MLP over two
        chunks of an array on one worker, the inline path, holds one chunk's
        hidden activation and ReLU mask and its logits and probabilities: the
        in-place ReLU keeps no second hidden activation, and each chunk's
        comparison goes into one bool per row, with no 8-byte predictions.
        (A test set's file adds each chunk's features to that.)"""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: 1)
        net, x, y = self.two_chunks()
        assert traced_peak(lambda: _errors(net, x, y))[1] < self.CHUNK_BYTES

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_worker_holds_one_chunk(self, monkeypatch, workers):
        """On the pool each worker holds one chunk's activations at a time;
        two full chunks take at most two workers, however many CPUs there are."""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: workers)
        net, x, y = self.two_chunks()
        assert traced_peak(lambda: _errors(net, x, y))[1] < 2 * self.CHUNK_BYTES


class TestChunkPool:
    """``nn.for_each_chunk``, the evaluator's chunk loop: concurrent only
    where chunks cannot share a layer's state, every chunk finished before
    it returns or raises, and the caller's error state in every chunk."""

    # One network holding every layer kind, after a training forward has
    # left each layer's backward cache in place.
    SPECS = [Conv2D(1, 2, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(18, 4), ReLU(),
             Dense(4, 3)]

    def test_a_forward_only_pass_rebinds_no_layer_state(self):
        """Concurrent chunks share the network, so a forward-only pass may
        rebind nothing a layer holds; ``Network._forward_done`` is the one
        write, and every chunk writes the same False."""
        assert {type(spec) for spec in self.SPECS} == set(LayerSpec.__args__)
        net = Network(self.SPECS, (8, 8, 1), seed=9)
        x = np.random.default_rng(9).normal(size=(5, 64))
        net.forward(x)
        layers = [dict(vars(layer)) for layer in net.layers]
        arrays = [(p.data, p.grad) for p in net.parameters()]
        before = {key: value for key, value in vars(net).items() if key != "_forward_done"}
        net.forward(x, cache=False)
        for layer, held in zip(net.layers, layers):
            assert vars(layer).keys() == held.keys()
            assert all(vars(layer)[key] is value for key, value in held.items())
        assert all(p.data is data and p.grad is grad
                   for p, (data, grad) in zip(net.parameters(), arrays))
        assert {key: value for key, value in vars(net).items() if key != "_forward_done"} == before
        assert net._forward_done is False

    @staticmethod
    def numbered_rows(n):
        """A 1-3 MLP's heads view and ``n`` rows whose feature is the row's index."""
        return OneHead(Network([Dense(1, 3)], (1,), seed=8)), np.arange(n, dtype=float)[:, None]

    def test_a_failure_is_raised_after_every_chunk_returns(self, monkeypatch):
        """Of four chunks on two workers, chunk 1 fails at once, chunk 0 late,
        and chunk 2 returns after both: the caller gets chunk 0's failure,
        the first in chunk order, once chunks 2 and 3 have returned."""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: 2)
        net, x = self.numbered_rows(3 * EVAL_CHUNK + 17)
        forward, returned = net.forward, []
        delay = {0: 0.3, 2: 0.5}

        def failing(batch, cache=True):
            chunk = int(batch[0, 0]) // EVAL_CHUNK
            time.sleep(delay.get(chunk, 0.0))
            if chunk in (0, 1):
                raise MemoryError(f"chunk {chunk}")
            out = forward(batch, cache)
            returned.append(chunk)
            return out

        net.forward = failing
        with pytest.raises(MemoryError, match="chunk 0"):
            _errors(net, x, np.zeros(len(x), dtype=int))
        assert sorted(returned) == [2, 3]

    def test_an_interrupt_in_the_callers_chunk_takes_no_other_chunk(self, monkeypatch):
        """Of four chunks on two workers, the calling thread's first chunk
        raises ``KeyboardInterrupt`` while the pool thread holds another: the
        interrupt reaches the caller once that chunk has returned, and no
        worker takes a third chunk."""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: 2)
        net, x = self.numbered_rows(4 * EVAL_CHUNK)
        forward, caller = net.forward, threading.get_ident()
        taken, returned, pool_busy = {"caller": [], "pool": []}, [], threading.Event()

        def interrupted(batch, cache=True):
            chunk = int(batch[0, 0]) // EVAL_CHUNK
            if threading.get_ident() == caller:
                taken["caller"].append(chunk)
                pool_busy.wait(timeout=10)
                raise KeyboardInterrupt
            taken["pool"].append(chunk)
            pool_busy.set()
            time.sleep(0.3)
            out = forward(batch, cache)
            returned.append(chunk)
            return out

        net.forward = interrupted
        with pytest.raises(KeyboardInterrupt):
            _errors(net, x, np.zeros(len(x), dtype=int))
        assert pool_busy.is_set()
        assert len(taken["caller"]) == len(taken["pool"]) == 1
        assert returned == taken["pool"]

    def test_every_chunk_runs_once_under_fast_thread_switches(self, monkeypatch):
        """More workers than cores take the chunks from one queue while the
        interpreter switches threads every microsecond: none is lost or
        taken twice."""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: 8)
        starts, switch = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for_each_chunk(lambda rows: starts.append(rows.start), 5003, 5)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(starts) == list(range(0, 5003, 5))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_callers_error_state_holds_in_every_chunk(self, monkeypatch, tmp_path,
                                                           workers):
        """Logits of +-1e308 overflow in the softmax's max subtraction; under
        ``np.errstate(over="raise")`` that raises on the pool as inline."""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: workers)
        net = Network([Dense(1, 2)], (1,), seed=0)
        net.layers[0].w.data[...] = [[1.0, -1.0]]
        n = 2 * EVAL_CHUNK + 1
        test = on_file(tmp_path / "t.nld", np.full((n, 1), 1e308), np.zeros(n, dtype=int))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            evaluate(OneHead(net), test)


# The package's import, a config build and one data resolution into the
# directory argv[2] (the set-up path), then an evaluation of its test set,
# one full chunk plus a remainder.
UNTOUCHED = """
import sys, threading
import numpy as np
import noiseattn, noiseattn.cli
from noiseattn import (Dense, Network, OneHead, build_config, evaluate, parse_config_text,
                       resolve_data)
cfg = build_config(parse_config_text(sys.argv[1]))
_, test = resolve_data(cfg, sys.argv[2])
assert "concurrent.futures" not in sys.modules
threads = threading.active_count()
evaluate(OneHead(Network([Dense(20, 64), Dense(64, 10)], (20,), seed=1)), test)
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == threads
"""

UNTOUCHED_CFG = """
seed = 3
out = run
data.source = synthetic
data.synthetic.kind = blobs
data.synthetic.classes = 10
data.synthetic.dim = 20
data.synthetic.n_train = 600
data.synthetic.n_test = 5000
arch.input_shape = 20
arch.layers = dense:20:64,relu,dense:64:10
"""


def test_paths_without_two_full_chunks_start_no_thread(tmp_path):
    """In a fresh process, neither set-up nor a one-chunk evaluation imports
    ``concurrent.futures`` or starts a thread, on any number of CPUs."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", UNTOUCHED, UNTOUCHED_CFG, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# A three-chunk evaluation (two full chunks and a remainder) of a two-head
# view, on a test set it saves as argv[2], at one CPU and then at argv[1]
# CPUs (``nn._cpus`` patched); prints the digests of the chunks'
# probabilities and the errors, which must not depend on the CPU count.
SPLIT = """
import hashlib, sys, threading, time
import numpy as np
import noiseattn.nn
from noiseattn import (AttributeSpec, Dataset, Dense, MultiHeadNetwork, Network, ReLU,
                       evaluate, load_dataset, save_dataset)
from noiseattn.multihead import _errors
from noiseattn.nn import EVAL_CHUNK

rng = np.random.default_rng(4)
n = 2 * EVAL_CHUNK + 123
x = rng.normal(size=(n, 20))
y = np.stack([rng.integers(0, 3, n), rng.integers(0, 5, n)], axis=1)
save_dataset(Dataset(x, y, 5, y), sys.argv[2])
test = load_dataset(sys.argv[2], features=False)
view = MultiHeadNetwork(Network([Dense(20, 32), ReLU()], (20,), seed=2),
                        AttributeSpec([3, 5], ["a", "b"]), seed=3)
forward, chunks = view.forward, {}

def scored(batch, cache=True):
    on_main = threading.current_thread() is threading.main_thread()
    if not on_main:
        time.sleep(0.05)  # the caller's turn comes, however threads are scheduled
    probs = forward(batch, cache)
    chunks[hashlib.sha256(batch).hexdigest()] = (
        on_main, [hashlib.sha256(p).hexdigest() for p in probs])
    return probs

def chunk_threads():
    return sum(t.name.startswith("noiseattn-chunk") for t in threading.enumerate())

view.forward = scored
results = []
for cpus in (1, int(sys.argv[1])):
    noiseattn.nn._cpus = lambda: cpus
    chunks.clear()
    evaluate(view, test)
    assert len(chunks) == 3
    assert chunk_threads() == (cpus > 1), chunk_threads()
    assert any(on_main for on_main, _ in chunks.values())
    digests = sorted((key, probs) for key, (_, probs) in chunks.items())
    results.append((repr(_errors(view, x, y)), digests))
assert results[0] == results[1]
print(results[1])
"""


def test_a_three_chunk_evaluation_starts_one_thread_beside_the_caller(tmp_path):
    """In fresh processes at 2 and at 3 CPUs, an evaluation of two full
    chunks and a remainder starts exactly one ``noiseattn-chunk`` thread and
    scores at least one chunk on the main thread; each chunk's
    probabilities and the errors of ``_errors`` have the bits of one CPU."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    printed = []
    for cpus in ("2", "3"):
        proc = subprocess.run([sys.executable, "-c", SPLIT, cpus, str(tmp_path / "t.nld")],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0] == printed[1]


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
        err = grad_check_classifier(net, rng.normal(size=(3, 36)),
                                    rng.integers(0, 3, size=3))
        assert err <= 1e-6

    def test_strided_conv(self):
        net = Network([Conv2D(2, 3, 3, stride=2), ReLU(), Flatten(), Dense(12, 2)],
                      (5, 5, 2), seed=17)
        rng = np.random.default_rng(18)
        err = grad_check_classifier(net, rng.normal(size=(3, 50)),
                                    rng.integers(0, 2, size=3))
        assert err <= 1e-6

    def test_corrupted_backward_is_detected(self):
        # negative control: a wrong backward must blow past the tolerance
        net = Network([Dense(3, 4), ReLU(), Dense(4, 2)], (3,), seed=19)
        layer = net.layers[0]
        original = layer.backward

        def corrupted(dy, input_grad=True):
            dx = original(dy, input_grad)
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
