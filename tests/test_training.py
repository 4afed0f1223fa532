"""Trainer bookkeeping: where labels are checked, divergence reports, and
the parameter arena the optimizers keep."""

import re
from pathlib import Path

import numpy as np
import pytest

from noiseattn import (AttributeSpec, ConfigError, DataError, Dense, DivergenceError,
                       MultiHeadNetwork, NAModel, Network, OneHead, RecursionSchedule, ReLU,
                       StageError, Trainer, TrainSettings, UnitSchedule, build_config,
                       run_experiment, run_recursion, split_train_val)
from noiseattn.nn import entropy_tuple
from noiseattn.training import STREAM_SHUFFLE, _param_chain

SRC = Path(__file__).resolve().parents[1] / "src" / "noiseattn"
SETTINGS = TrainSettings(lr=0.05, batch_size=16)


def plain_trainer():
    net = OneHead(Network([Dense(4, 8), ReLU(), Dense(8, 3)], (4,), seed=1))
    return Trainer(net, SETTINGS, seed=2)


def na_trainer():
    net = OneHead(Network([Dense(4, 8), ReLU(), Dense(8, 3)], (4,), seed=1))
    trainer = Trainer(net, SETTINGS, [NAModel(3)], seed=2)
    trainer.add_unit(UnitSchedule(init_jitter=1e-2))
    return trainer


def multi_trainer():
    trunk = Network([Dense(4, 8), ReLU()], (4,), seed=1)
    mh = MultiHeadNetwork(trunk, AttributeSpec([3, 4]), seed=1)
    return Trainer(mh, SETTINGS, [NAModel(3), NAModel(4)], seed=2)


def state(trainer):
    """Every network and unit parameter, flattened."""
    params = trainer.net.parameters() + [u.q for m in trainer.na_models for u in m.units]
    return np.concatenate([p.data.ravel() for p in params])


TRAINERS = {"plain": plain_trainer, "na": na_trainer, "multi": multi_trainer}


def with_bad_label(name, row, bad):
    """A trainer of ``TRAINERS[name]``, 80 feature rows, and labels whose
    ``row`` holds ``bad`` (-1, or "classes" for the head's class count)."""
    trainer = TRAINERS[name]()
    counts = trainer.net.class_counts
    rng = np.random.default_rng(row)
    x = rng.normal(size=(80, 4))
    labels = np.stack([rng.integers(0, c, size=80) for c in counts], axis=1)
    column = row % len(counts)
    labels[row, column] = counts[column] if bad == "classes" else bad
    return trainer, x, labels[:, 0] if len(counts) == 1 else labels


class TestLabelsCheckedPerEpoch:
    @pytest.mark.parametrize("name", sorted(TRAINERS))
    @pytest.mark.parametrize("row", [0, 37, 79])
    @pytest.mark.parametrize("bad", [-1, "classes"])
    def test_out_of_range_label_stops_before_any_step(self, name, row, bad):
        trainer, x, labels = with_bad_label(name, row, bad)
        before = state(trainer)
        with pytest.raises(DataError, match=r"labels must lie in \[0, "):
            trainer.train_epoch(x, labels)
        with pytest.raises(DataError, match=r"labels must lie in \[0, "):
            trainer.val_loss(x, labels)
        assert state(trainer).tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", sorted(TRAINERS))
    @pytest.mark.parametrize("row", [0, 37, 79])
    @pytest.mark.parametrize("bad", [-1, "classes"])
    def test_out_of_range_label_stops_recursion_before_any_step(self, name, row, bad):
        trainer, x, labels = with_bad_label(name, row, bad)
        before = state(trainer)
        metric_calls = []
        with pytest.raises(DataError, match=r"labels must lie in \[0, "):
            run_recursion(trainer, x, labels, RecursionSchedule(iterations=2, epochs=1),
                          val_metric=lambda: metric_calls.append(1) or 0.0,
                          on_iteration=lambda record: None)
        assert metric_calls == []
        assert state(trainer).tobytes() == before.tobytes()

    def test_noise_models_must_match_the_heads(self):
        net = OneHead(Network([Dense(4, 3)], (4,), seed=1))
        with pytest.raises(ConfigError, match="do not match heads"):
            Trainer(net, SETTINGS, [NAModel(4)])

    def test_label_columns_must_match_the_heads(self):
        trainer = multi_trainer()
        with pytest.raises(DataError, match="2 head"):
            trainer.train_epoch(np.zeros((8, 4)), np.zeros(8, dtype=int))


class TestTrainSettings:
    """``TrainSettings`` is where the optimizer hyperparameters are checked;
    ``SGD`` takes them as they are."""

    @pytest.mark.parametrize("field, value, message", [
        ("lr", 0.0, r"^lr must be positive and finite, got 0.0$"),
        ("momentum", 1.0, r"^momentum must lie in \[0, 1\), got 1.0$"),
        ("weight_decay", -1.0, r"^weight_decay must be finite and >= 0, got -1.0$"),
        ("batch_size", 0, r"^batch_size must be >= 1, got 0$"),
    ], ids=["lr", "momentum", "weight_decay", "batch_size"])
    def test_bad_hyperparameters_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainSettings(**{field: value})


class TestValidationSplit:
    """``UnitSchedule`` keeps ``val_fraction`` in (0, 1); the split then
    never leaves the validation part empty."""

    def test_a_small_share_still_holds_one_index(self):
        train, val = split_train_val(10, 0.01, 3)
        assert val.size == 1
        assert np.array_equal(np.sort(np.concatenate([train, val])), np.arange(10))

    def test_a_split_that_leaves_no_training_data(self):
        with pytest.raises(ConfigError, match="leaves no training data"):
            split_train_val(1, 0.01, 0)


class TestDivergence:
    def test_nan_row_names_its_batch(self):
        trainer = plain_trainer()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 4))
        x[42] = np.nan
        labels = rng.integers(0, 3, size=100)
        # the position of row 42 in the epoch's shuffled order gives its batch
        order = np.random.default_rng(entropy_tuple(2, STREAM_SHUFFLE)).permutation(100)
        batch = int(np.flatnonzero(order == 42)[0]) // SETTINGS.batch_size + 1
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=rf"^non-finite loss nan at batch {batch} "
                                                      r"of 7; every parameter is finite; "
                                                      r"the input holds a non-finite value$"):
                trainer.train_epoch(x, labels)
        assert np.isfinite(state(trainer)).all()  # the NaN batch took no step

    # Each parameter by the name the error gives it, reached through the trainer.
    PARAMETERS = {
        "layer 0 b": lambda t: t.net.trunk.layers[0].b,
        "layer 2 w": lambda t: t.net.trunk.layers[2].w,
        "layer 2 b": lambda t: t.net.trunk.layers[2].b,
        "unit 1 q": lambda t: t.na_models[0].units[1].q,
        "head attr1 w": lambda t: t.net.heads[1].layers[0].w,
        "attr0 unit 0 q": lambda t: t.na_models[0].units[0].q,
        "attr1 unit 0 q": lambda t: t.na_models[1].units[0].q,
    }

    @pytest.mark.parametrize("name, poisoned, first", [
        ("plain", ["layer 2 b"], "layer 2 b"),
        ("plain", ["layer 2 w", "layer 0 b"], "layer 0 b"),
        ("na", ["unit 1 q"], "unit 1 q"),
        ("na", ["unit 1 q", "layer 2 w"], "layer 2 w"),
        ("multi", ["head attr1 w"], "head attr1 w"),
        ("multi", ["attr1 unit 0 q", "attr0 unit 0 q"], "attr0 unit 0 q"),
        ("multi", ["attr1 unit 0 q", "head attr1 w"], "head attr1 w"),
    ])
    def test_names_the_first_non_finite_parameter(self, name, poisoned, first):
        """Network parameters come in layer order, then each attribute's
        units; the one named, by a training step or by the validation loss,
        is the first that holds a NaN or an infinity."""
        trainer = TRAINERS[name]()
        for k, target in enumerate(poisoned):
            self.PARAMETERS[target](trainer).data.flat[k] = (np.nan, np.inf)[k % 2]
        x = np.full((100, 4), np.nan)  # the first batch diverges whatever the parameters
        labels = np.zeros((100, len(trainer.na_models)), dtype=int)
        labels = labels[:, 0] if name != "multi" else labels
        before = state(trainer)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=rf"^non-finite loss nan at batch 1 of 7; "
                                                      rf"first non-finite parameter: {first}$"):
                trainer.train_epoch(x, labels)
            with pytest.raises(DivergenceError, match=rf"^non-finite validation loss nan; "
                                                      rf"first non-finite parameter: {first}$"):
                trainer.val_loss(x, labels)
        assert state(trainer).tobytes() == before.tobytes()

    @pytest.mark.parametrize("name, layer, where", [
        ("plain", lambda t: t.net.trunk.layers[2], "layer 2"),
        ("multi", lambda t: t.net.heads[1].layers[0], "head attr1 layer 0"),
    ])
    def test_names_the_first_non_finite_output(self, name, layer, where):
        """With every parameter finite, a training step and the validation
        loss name the first layer whose output overflows, the trunk's before
        the heads', with its kind and largest |parameter|."""
        trainer = TRAINERS[name]()
        layer(trainer).w.data[...] = 1e308
        x = np.random.default_rng(4).normal(size=(100, 4))
        labels = np.zeros((100, len(trainer.na_models)), dtype=int)
        labels = labels[:, 0] if name != "multi" else labels
        culprit = (rf"every parameter is finite; first non-finite output: {where} \(Dense\), "
                   r"largest \|parameter\| 1e\+308$")
        before = state(trainer)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError,
                               match=rf"^non-finite loss nan at batch 1 of 7; {culprit}"):
                trainer.train_epoch(x, labels)
            with pytest.raises(DivergenceError, match=rf"^non-finite validation loss nan; {culprit}"):
                trainer.val_loss(x, labels)
        assert state(trainer).tobytes() == before.tobytes()

    def test_recursion_names_round_and_epoch(self):
        trainer = plain_trainer()
        rng = np.random.default_rng(5)
        x, labels = rng.normal(size=(40, 4)), rng.integers(0, 3, size=40)
        rounds = []

        def val_metric():
            rounds.append(len(rounds))
            if len(rounds) == 2:  # after round 1: poison the network for round 2
                trainer.net.trunk.layers[2].w.data[0, 0] = np.inf
            return 1.0 - len(rounds)

        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=r"^round 2 epoch 1: non-finite loss nan at "
                                                      r"batch 1 of 3; first non-finite parameter: "
                                                      r"layer 2 w$"):
                run_recursion(trainer, x, labels, RecursionSchedule(iterations=3, epochs=2),
                              val_metric=val_metric, on_iteration=lambda record: None)

    def test_run_names_stage_and_epoch(self, tmp_path):
        """A learning rate of 1e300 makes the validation pass after the first
        pretraining epoch of a 6x6 conv net overflow; its parameters stay
        finite. The run stops there, before the epoch's rows are written.
        Pretraining takes at least one epoch, so no later stage is reached."""
        entries = {"seed": "3", "out": str(tmp_path / "run"), "data.source": "synthetic",
                   "data.synthetic.kind": "patches", "data.synthetic.classes": "3",
                   "data.synthetic.height": "6", "data.synthetic.width": "6",
                   "data.synthetic.n_train": "40", "data.synthetic.n_test": "20",
                   "arch.input_shape": "6x6x1",
                   "arch.layers": "conv:1:2:3,relu,pool,flatten,dense:8:3",
                   "opt.lr": "1e300", "na.pretrain_epochs": "2",
                   "na.stage_epochs": "3"}
        with np.errstate(all="ignore"):
            with pytest.raises(StageError, match=r"^\[pretrain\] epoch 1: non-finite "
                                                 r"validation loss nan; "
                                                 r"every parameter is finite; "
                                                 r"first non-finite output: layer 4 \(Dense\), "
                                                 r"largest \|parameter\| 3\.69e\+299$"):
                run_experiment(build_config(entries))
        metrics = (tmp_path / "run" / "metrics.csv").read_text()
        assert "nan" not in metrics
        assert metrics.splitlines() == ["stage,iteration,epoch,split,metric,value"]


class TestParameterArena:
    def test_parameters_stay_views_into_the_arena(self):
        trainer = na_trainer()
        rng = np.random.default_rng(4)
        x, labels = rng.normal(size=(48, 4)), rng.integers(0, 3, size=48)
        trainer.train_epoch(x, labels)
        trainer.add_unit(UnitSchedule(init_jitter=1e-2))
        trainer.train_epoch(x, labels)
        for opt in (trainer.net_opt, *trainer.unit_opts):
            assert opt.params
            for p in opt.params:
                assert np.shares_memory(p.data, opt._data)
                assert np.shares_memory(p.grad, opt._grad)
        assert [[p.data.size for p in opt.params] for opt in trainer.unit_opts] == [[9, 9]]

    def test_unit_arenas_follow_the_chain_however_units_were_added(self):
        """Units added a1, b1, a2, b2, as a run adds them epoch by epoch, and
        a trainer built over the same models, as a resume builds it, hold
        the same arenas: one per model (3 and 4 classes), in chain order."""
        trainer = multi_trainer()
        for _ in range(2):
            for k in range(2):
                trainer.add_unit(UnitSchedule(init_jitter=1e-2), k)
        rebuilt = Trainer(trainer.net, SETTINGS, trainer.na_models, seed=2)
        chain = [p for _, p in _param_chain(trainer.net, trainer.na_models)]
        for t in (trainer, rebuilt):
            held = [chain.index(p) for opt in t.unit_opts for p in opt.params]
            assert held == sorted(held)
            assert [[p.data.size for p in opt.params] for opt in t.unit_opts] == [[9, 9], [16, 16]]
        assert [list(map(id, opt.params)) for opt in trainer.unit_opts] == [
            list(map(id, opt.params)) for opt in rebuilt.unit_opts]

    def test_only_the_arena_rebinds_parameter_arrays(self):
        # p.data = ... outside nn.py would detach p from its optimizer's arena
        rebind = re.compile(r"\.(data|grad)\s*=(?!=)")
        hits = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
                for line in path.read_text().splitlines() if rebind.search(line)]
        assert hits == [
            ("nn.py", "self.data = np.ascontiguousarray(data, dtype=np.float64)"),
            ("nn.py", "self.grad = np.zeros_like(self.data)"),
            ("nn.py", "p.data = data[pos:stop].reshape(p.data.shape)"),
            ("nn.py", "p.grad = grad[pos:stop].reshape(p.grad.shape)"),
        ]
