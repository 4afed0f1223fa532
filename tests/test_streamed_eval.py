"""Test sets scored straight from their NLD1 file, one chunk at a time.

``evaluate`` of a ``data.FeatureFile`` reads the rows of each
``EVAL_CHUNK`` chunk from the file as the chunk is scored. It must give the
bits of the in-memory evaluation at every chunk boundary, on one CPU and
on the chunk pool; hold a few chunks of features, not the set; leave no
file open; and end a file that breaks mid-evaluation in exit 2. A run
scores its test set from ``test.nld`` or ``data.test_path`` and lets the
array it generated or loaded die after the data stage.
"""

import os
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from noiseattn import (AttributeSpec, Dataset, Dense, FormatError, MultiHeadNetwork, NAModel,
                       Network, OneHead, ReLU, build_config, evaluate, harness, load_dataset,
                       resolve_data, run_experiment, save_dataset, save_snapshot)
from noiseattn.cli import main as cli_main
from noiseattn.cli import _print_errors
from noiseattn.data import FeatureFile, _Reader
from noiseattn.nn import EVAL_CHUNK
from peaks import traced_peak

SIZES = [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 2 * EVAL_CHUNK, 2 * EVAL_CHUNK + 1]
FEATURES_AT = 25  # magic, version and header
NON_FINITE = "error [config] invalid dataset content: features contain non-finite values\n"


def case(kind, n, d=3, seed=4):
    """A snapshot-ready view and a test set of ``n`` rows that it scores
    with errors well away from 0 and 1."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if kind == "single":
        view = OneHead(Network([Dense(d, 6), ReLU(), Dense(6, 4)], (d,), seed=seed))
        labels = rng.integers(0, 4, n)
        return view, [NAModel(4)], Dataset(x, labels, 4, labels)
    attrs = AttributeSpec([3, 4, 2], ["a", "b", "c"])
    view = MultiHeadNetwork(Network([Dense(d, 8), ReLU()], (d,), seed=seed), attrs, seed=seed)
    labels = np.stack([rng.integers(0, c, n) for c in attrs.class_counts], axis=1)
    return view, [NAModel(c) for c in attrs.class_counts], Dataset(x, labels, 4, labels)


def eval_args(tmp_path, view, models, dataset):
    save_snapshot(tmp_path / "m.nam", view, models)
    save_dataset(dataset, tmp_path / "t.nld")
    return ["eval", "--snapshot", str(tmp_path / "m.nam"), "--data", str(tmp_path / "t.nld")]


def put_nan(path, row, d, column=0):
    with open(path, "r+b") as fh:
        fh.seek(FEATURES_AT + (row * d + column) * 8)
        fh.write(struct.pack("<d", np.nan))


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


class TestStreamedEqualsInMemory:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind", ["single", "multi"])
    def test_every_chunk_boundary(self, tmp_path, monkeypatch, kind, cpus, n):
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: cpus)
        view, _, dataset = case(kind, n)
        save_dataset(dataset, tmp_path / "t.nld")
        on_file = load_dataset(tmp_path / "t.nld", features=False)
        assert isinstance(on_file.features, FeatureFile) and on_file.features.shape == (n, 3)
        read, rows = [], _Reader.rows

        def recording(reader, at, start, stop, d):
            read.append((start, stop))
            return rows(reader, at, start, stop, d)

        monkeypatch.setattr(_Reader, "rows", recording)
        streamed = evaluate(view, on_file.features, on_file.true_labels)
        assert sorted(read) == [(s, min(s + EVAL_CHUNK, n)) for s in range(0, n, EVAL_CHUNK)]
        assert streamed == evaluate(view, dataset.features, dataset.true_labels)

    @pytest.mark.parametrize("kind", ["single", "multi"])
    def test_cli_eval_prints_the_in_memory_errors(self, tmp_path, capsys, kind):
        view, models, dataset = case(kind, 2 * EVAL_CHUNK + 1)
        assert cli_main(eval_args(tmp_path, view, models, dataset)) == 0
        printed = capsys.readouterr().out
        _print_errors("test error", evaluate(view, dataset.features, dataset.true_labels),
                      view.attributes)
        assert printed == capsys.readouterr().out


class TestMemory:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_eval_of_a_12_chunk_file_holds_a_few_chunks(self, tmp_path, monkeypatch, cpus):
        """12 chunks of 32 features are 12 MiB. Eval peaked at 2.1 chunks of
        them on one CPU and 3.4 on two (two chunks in flight), labels and
        the chunks' passes included. Loading the set whole peaked at 13.1
        and 13.4 chunks."""
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: cpus)
        n, d = 12 * EVAL_CHUNK, 32
        labels = np.arange(n) % 3
        args = eval_args(tmp_path, OneHead(Network([Dense(d, 3)], (d,), seed=0)), [NAModel(3)],
                         Dataset(np.random.default_rng(0).normal(size=(n, d)), labels, 3,
                                 labels))
        code, peak = traced_peak(lambda: cli_main(args))
        assert code == 0
        assert peak < 4 * EVAL_CHUNK * d * 8

    @pytest.mark.parametrize("attributes", [None, "a:2,b:3"])
    def test_the_generated_test_array_is_dead_by_the_first_evaluation(
            self, tmp_path, monkeypatch, attributes):
        entries = {"seed": "2", "out": str(tmp_path / "run"), "data.source": "synthetic",
                   "data.synthetic.n_train": "120", "data.synthetic.n_test": "50",
                   "arch.input_shape": "2", "arch.layers": "dense:2:3",
                   "na.pretrain_epochs": "1", "na.stage_epochs": "1",
                   "recursion.iterations": "1", "recursion.epochs": "1"}
        if attributes:
            entries.update({"attributes": attributes, "arch.input_shape": "4",
                            "arch.layers": "dense:4:5,relu"})
        name = "generate_synthetic_multi" if attributes else "generate_synthetic"
        generate, test_rows = getattr(harness, name), harness._test_rows
        arrays, dead = [], []

        def recording(*args):
            train, test = generate(*args)
            arrays.append(weakref.ref(test.features))
            return train, test

        def checking(run, view, test_ds, *args):
            dead.append(arrays[0]() is None)
            return test_rows(run, view, test_ds, *args)

        monkeypatch.setattr(harness, name, recording)
        monkeypatch.setattr(harness, "_test_rows", checking)
        run_experiment(build_config(entries))
        assert len(arrays) == 1 and dead == [True] * 3  # stage 0, one round, final


class TestBrokenFiles:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_nan_in_the_last_chunk_only_exits_2(self, tmp_path, capsys, monkeypatch, cpus):
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: cpus)
        n = 2 * EVAL_CHUNK + 7
        args = eval_args(tmp_path, *case("multi", n))
        put_nan(args[-1], n - 1, 3, column=2)
        assert cli_main(args) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", NON_FINITE)
        assert f"error [config] {load_error(args[-1])}\n" == NON_FINITE

    def test_labels_beyond_a_head_are_reported_before_non_finite_features(self, tmp_path,
                                                                          capsys):
        """The labels are checked against the snapshot before any row is
        read; loading the set whole used to report the features first."""
        view, models, _ = case("single", 10)
        labels = np.arange(10) % 5  # the snapshot has 4 classes, the file 5
        args = eval_args(tmp_path, view, models, Dataset(np.zeros((10, 3)), labels, 5, labels))
        put_nan(args[-1], 9, 3)
        assert cli_main(args) == 2
        assert capsys.readouterr().err == (
            "error [config] test given labels must lie in [0, 4), got range [0, 4]\n")
        assert f"error [config] {load_error(args[-1])}\n" == NON_FINITE

    def test_a_test_file_cut_after_the_data_stage_ends_in_exit_2(self, tmp_path, capsys,
                                                                 monkeypatch):
        """An nld-source run reads its test set whole in the data stage and
        scores it from the file after training."""
        cfg_text = ("seed = 7\nout = {out}\ndata.source = nld\n"
                    "data.train_path = {train}\ndata.test_path = {test}\n"
                    "arch.input_shape = 2\narch.layers = dense:2:3\n"
                    "na.pretrain_epochs = 1\nna.stage_epochs = 1\nrecursion.iterations = 0\n")
        train, test = resolve_data(build_config({"seed": "7", "data.synthetic.n_test": "90"}))
        save_dataset(train, tmp_path / "train.nld")
        save_dataset(test, tmp_path / "test.nld")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(cfg_text.format(out=tmp_path / "run", train=tmp_path / "train.nld",
                                       test=tmp_path / "test.nld"))
        split = harness._split

        def cut_then_split(*args):
            os.truncate(tmp_path / "test.nld", FEATURES_AT + 16 * 40)
            return split(*args)

        monkeypatch.setattr(harness, "_split", cut_then_split)
        assert cli_main(["train", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error [na] truncated dataset file: needed {90 * 16} bytes for features at "
            f"offset {FEATURES_AT}, have {16 * 40}"]
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_a_file_resized_under_a_feature_file_is_a_format_error(self, tmp_path):
        view, models, dataset = case("single", 30)
        args = eval_args(tmp_path, view, models, dataset)
        on_file = load_dataset(args[-1], features=False)
        save_dataset(Dataset(np.zeros((31, 3)), np.zeros(31, int), 4), args[-1])
        with pytest.raises(FormatError, match="now holds 31 rows of 3 features, not 30 of 3$"):
            evaluate(view, on_file.features, on_file.true_labels)


def load_error(path) -> str:
    try:
        load_dataset(path)
    except FormatError as exc:
        return str(exc)
    raise AssertionError(f"{path} loads")


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_no_descriptor_outlives_an_eval_or_a_run(tmp_path, capsys, monkeypatch):
    """20 CLI evals (on the chunk pool, half of them ending at a NaN in a
    late chunk) and a run leave the same descriptors open."""
    monkeypatch.setattr("noiseattn.nn._cpus", lambda: 2)
    n = 3 * EVAL_CHUNK
    good = eval_args(tmp_path, *case("multi", n))
    bad = [*good[:-1], str(tmp_path / "bad.nld")]
    save_dataset(case("multi", n)[2], bad[-1])
    put_nan(bad[-1], n - 5, 3)
    before = open_fds()
    assert [cli_main(good if i % 2 else bad) for i in range(20)] == [2, 0] * 10
    capsys.readouterr()
    run_experiment(build_config({"seed": "3", "out": str(tmp_path / "run"),
                                 "arch.input_shape": "2", "arch.layers": "dense:2:3",
                                 "na.pretrain_epochs": "1", "na.stage_epochs": "1",
                                 "recursion.iterations": "1", "recursion.epochs": "1"}))
    assert open_fds() == before
