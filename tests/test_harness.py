"""Config parsing, snapshots, exports, evaluation, and the experiment driver."""

import argparse
import os
import re
import shutil
import struct
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from noiseattn import (AttributeSpec, ConfigError, DataError, Dataset, Dense, Conv2D,
                       DivergenceError, Flatten,
                       FormatError, LayerSpec, MaxPool2x2, MultiHeadNetwork, NAModel, Network,
                       ReLU,
                       StageError, build_config, evaluate, export_q, load_config, load_q_csv,
                       load_snapshot, parse_arch, parse_config_text, parse_input_shape,
                       resolve_data, resume_recursion, run_experiment, save_dataset,
                       save_snapshot, serialize_arch, split_train_val)
from noiseattn import OneHead, cli, harness
from noiseattn.attention import project_column_stochastic
from noiseattn.cli import main as cli_main
from noiseattn.config import LAYER_KINDS
from noiseattn.harness import MetricsLog
from noiseattn.multihead import _errors
from noiseattn.nn import EVAL_CHUNK
from oracles import param_vector
from peaks import traced_peak


BASE_CFG = """
seed = 7
out = {out}
data.source = synthetic
data.synthetic.kind = blobs
data.synthetic.classes = 3
data.synthetic.dim = 2
data.synthetic.n_train = 240
data.synthetic.n_test = 80
noise.mode = uniform
noise.rho = 0.3
arch.input_shape = 2
arch.layers = dense:2:12,relu,dense:12:3
opt.lr = 0.05
opt.batch_size = 32
na.pretrain_epochs = 2
na.stage_epochs = 6
na.max_units = 2
na.patience = 2
"""


def write_single_snapshot(tmp_path):
    path = tmp_path / "m.nam"
    save_snapshot(path, Network([Dense(2, 3)], (2,), seed=0), [NAModel(3)])
    return path


def make_cfg(tmp_path, extra="", name="run"):
    text = BASE_CFG.format(out=tmp_path / name) + extra
    return build_config(parse_config_text(text))


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# comment\n\nseed = 4\n  na.patience = 2 \n")
        assert entries == {"seed": "4", "na.patience": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config({"seed": "1", "na.tyop": "3"})

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError, match="integer"):
            build_config({"seed": "one"})

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            build_config({"recursion.alpha_base": "1.5"})
        with pytest.raises(ConfigError):
            build_config({"na.val_fraction": "1.0"})

    def test_zero_val_fraction_is_rejected_at_load(self):
        """The plateau rule reads validation losses, so an empty validation
        split is a config error, not a failed run."""
        with pytest.raises(ConfigError, match=r"val_fraction must lie in \(0, 1\)"):
            build_config({"na.val_fraction": "0"})

    def test_attribute_list(self):
        cfg = build_config({"attributes": "color:3, shape:4"})
        assert cfg.attributes.names == ["color", "shape"]
        assert cfg.attributes.class_counts == [3, 4]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CFG.format(out=tmp_path / "o"))
        cfg = load_config(path)
        assert cfg.seed == 7 and cfg.na.max_units == 2


class TestArchDSL:
    def test_parse_and_serialize_round_trip(self):
        text = "dense:2:16,relu,dense:16:3"
        specs = parse_arch(text)
        assert specs == [Dense(2, 16), ReLU(), Dense(16, 3)]
        assert serialize_arch(specs) == "dense:2:16,relu,dense:16:3"

    def test_conv_tokens(self):
        specs = parse_arch("conv:1:4:3,relu,pool,flatten,dense:16:2")
        assert specs[0] == Conv2D(1, 4, 3, 1)
        assert specs[2] == MaxPool2x2() and specs[3] == Flatten()
        assert serialize_arch(specs) == "conv:1:4:3:1,relu,pool,flatten,dense:16:2"

    def test_bad_tokens(self):
        for bad in ("dense:2", "conv:1:2", "swish", "dense:a:b", "dense:1:2:3",
                    "conv:1:2:3:1:1", "relu:1", "flatten:"):
            with pytest.raises(ConfigError):
                parse_arch(bad)

    @pytest.mark.parametrize("bad, message", [
        ("swish", "bad layer token 'swish'"),
        ("conv:1:2", "bad layer token 'conv:1:2'"),
        ("dense:a:2", "bad layer token 'dense:a:2': invalid literal for int() with base 10: 'a'"),
        ("dense:0:2", "bad layer token 'dense:0:2': Dense dims must be positive, got 0x2"),
    ])
    def test_bad_token_messages(self, bad, message):
        with pytest.raises(ConfigError) as info:
            parse_arch(bad)
        assert str(info.value) == message

    def test_every_layer_spec_has_one_kind(self):
        kinds = list(LAYER_KINDS.values())
        assert sorted(map(kinds.count, typing.get_args(LayerSpec))) == [1] * 5
        assert set(kinds) == set(typing.get_args(LayerSpec))

    @pytest.mark.parametrize("text, spec, written", [
        ("dense:3:4", Dense(3, 4), "dense:3:4"),
        ("conv:2:5:3", Conv2D(2, 5, 3), "conv:2:5:3:1"),
        ("conv:2:5:3:2", Conv2D(2, 5, 3, 2), "conv:2:5:3:2"),
        ("relu", ReLU(), "relu"),
        ("pool", MaxPool2x2(), "pool"),
        ("FLATTEN", Flatten(), "flatten"),
    ])
    def test_each_kind_round_trips(self, text, spec, written):
        assert parse_arch(text) == [spec]
        assert serialize_arch([spec]) == written
        assert parse_arch(written) == [spec]

    def test_unknown_spec_cannot_be_serialized(self):
        with pytest.raises(ConfigError, match="cannot serialize layer spec"):
            serialize_arch([Dense(2, 3), "relu"])

    def test_input_shape(self):
        assert parse_input_shape("2") == (2,)
        assert parse_input_shape("8x8x1") == (8, 8, 1)
        with pytest.raises(ConfigError):
            parse_input_shape("0x3")


class TestSnapshots:
    def test_round_trip_single(self, tmp_path):
        rng = np.random.default_rng(0)
        specs = [Dense(2, 8), ReLU(), Dense(8, 3)]
        net = Network(specs, (2,), seed=1)
        model = NAModel(3)
        unit = model.add_unit(decay=0.002)
        unit.q.data[...] = project_column_stochastic(rng.uniform(size=(3, 3)))
        path = tmp_path / "m.nam"
        save_snapshot(path, net, [model])
        view, (back,) = load_snapshot(path)
        assert view.attributes is None
        np.testing.assert_array_equal(param_vector(view.trunk), param_vector(net))
        assert back.active_count == 2
        assert back.units[1].decay == 0.002
        np.testing.assert_array_equal(back.units[1].q.data, unit.q.data)
        assert back.learnable_params() == [back.units[1].q]

    @pytest.mark.parametrize("attributes", [None, "a:2,b:3"])
    def test_header_is_written_from_the_view_and_read_back_as_it(self, tmp_path, attributes):
        trunk = Network([Dense(2, 4), ReLU(), *([Dense(4, 3)] if attributes is None else [])],
                        (2,), seed=2)
        view = (OneHead(trunk) if attributes is None
                else MultiHeadNetwork(trunk, AttributeSpec([2, 3], ["a", "b"]), seed=2))
        path = tmp_path / "m.nam"
        save_snapshot(path, view, [NAModel(c) for c in view.class_counts])
        _, meta_len = struct.unpack("<II", path.read_bytes()[4:12])
        meta = dict(line.split(" = ") for line in
                    path.read_bytes()[12:12 + meta_len].decode().splitlines())
        assert meta["arch"] == serialize_arch(view.trunk.specs) == "dense:2:4,relu" + (
            ",dense:4:3" if attributes is None else "")
        assert meta["input_shape"] == "2"
        assert meta.get("attributes") == attributes
        assert meta.get("classes") == ("3" if attributes is None else None)
        back, models = load_snapshot(path)
        assert type(back) is type(view)
        assert (back.trunk.specs, back.trunk.input_shape) == (view.trunk.specs, (2,))
        assert back.attributes == view.attributes
        assert [m.n_classes for m in models] == view.class_counts
        np.testing.assert_array_equal(param_vector(back), param_vector(view))

    def test_corrupt_magic(self, tmp_path):
        net = Network([Dense(2, 3)], (2,), seed=0)
        path = tmp_path / "m.nam"
        save_snapshot(path, net, [NAModel(3)])
        blob = bytearray(path.read_bytes())
        blob[0] = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_snapshot(path)

    def test_parameter_count_validated(self, tmp_path):
        net = Network([Dense(2, 3)], (2,), seed=0)
        path = tmp_path / "m.nam"
        save_snapshot(path, net, [NAModel(3)])
        path.write_bytes(path.read_bytes()[:-8])  # drop one parameter
        with pytest.raises(FormatError):
            load_snapshot(path)

    @staticmethod
    def rewrite_meta_line(path, key, replacement=None):
        """Drop the metadata line for ``key``, or put ``replacement`` in its place;
        the rest of the snapshot stays valid."""
        blob = path.read_bytes()
        version, meta_len = struct.unpack("<II", blob[4:12])
        lines = blob[12:12 + meta_len].decode().splitlines()
        edited = [replacement if line.partition("=")[0].strip() == key else line
                  for line in lines]
        assert edited != lines
        meta = "\n".join(line for line in edited if line is not None).encode()
        path.write_bytes(blob[:4] + struct.pack("<II", version, len(meta)) + meta
                         + blob[12 + meta_len:])

    @pytest.mark.parametrize("key", ["kind", "input_shape", "arch", "classes", "units", "decays"])
    def test_missing_single_metadata_key(self, tmp_path, key):
        path = write_single_snapshot(tmp_path)
        self.rewrite_meta_line(path, key)
        with pytest.raises(FormatError, match=f"'{key}'"):
            load_snapshot(path)

    @pytest.mark.parametrize("key", ["kind", "input_shape", "arch", "attributes", "units",
                                     "decays"])
    def test_missing_multi_metadata_key(self, tmp_path, key):
        specs = [Dense(2, 4), ReLU()]
        attrs = AttributeSpec([2, 3], ["a", "b"])
        net = MultiHeadNetwork(Network(specs, (2,), seed=0), attrs, seed=0)
        path = tmp_path / "m.nam"
        save_snapshot(path, net, [NAModel(2), NAModel(3)])
        assert load_snapshot(path)[0].attributes == attrs
        self.rewrite_meta_line(path, key)
        with pytest.raises(FormatError, match=f"'{key}'"):
            load_snapshot(path)

    @pytest.mark.parametrize("key, value", [("units", "x"), ("decays", "0.0,y"),
                                            ("classes", "three"), ("arch", "dense:2"),
                                            ("input_shape", "0")])
    def test_malformed_metadata_value(self, tmp_path, key, value):
        path = write_single_snapshot(tmp_path)
        self.rewrite_meta_line(path, key, replacement=f"{key} = {value}")
        with pytest.raises(FormatError, match=f"metadata {key} = "):
            load_snapshot(path)

    @pytest.mark.parametrize("attributes, units, decays", [
        (["a:2", "b:3"], "2", "0.0,0.001"),
        (["a:2", "b:3"], "1;1;1", "0.0;0.0;0.0"),
        (None, "1;1", "0.0;0.0"),
    ], ids=["multi-one-group", "multi-three-groups", "single-two-groups"])
    def test_one_unit_and_decay_group_per_attribute(self, tmp_path, attributes, units, decays):
        if attributes is None:
            path = write_single_snapshot(tmp_path)
        else:
            attrs = AttributeSpec([2, 3], ["a", "b"])
            specs = [Dense(2, 4), ReLU()]
            path = tmp_path / "m.nam"
            save_snapshot(path, MultiHeadNetwork(Network(specs, (2,), seed=0), attrs, seed=0),
                          [NAModel(2), NAModel(3)])
        self.rewrite_meta_line(path, "units", replacement=f"units = {units}")
        self.rewrite_meta_line(path, "decays", replacement=f"decays = {decays}")
        with pytest.raises(FormatError, match="decay groups"):
            load_snapshot(path)
        assert cli_main(["export-q", "--snapshot", str(path), "--out", str(tmp_path)]) == 2

    def test_classes_must_match_the_network_output(self, tmp_path):
        # 4 units of 3x3 hold as many values as 1 unit of 6x6: the count check passes
        model = NAModel(3)
        for _ in range(3):
            model.add_unit()
        path = tmp_path / "m.nam"
        save_snapshot(path, Network([Dense(2, 3)], (2,), seed=0), [model])
        self.rewrite_meta_line(path, "classes", replacement="classes = 6")
        self.rewrite_meta_line(path, "units", replacement="units = 1")
        self.rewrite_meta_line(path, "decays", replacement="decays = 0.0")
        with pytest.raises(FormatError, match="outputs 3 classes"):
            load_snapshot(path)

    @pytest.mark.parametrize("attributes", ["a:2,a:3", "a/:2,b:3", "a:2,ALL:3"])
    def test_bad_attribute_names_are_a_format_error(self, tmp_path, attributes):
        attrs = AttributeSpec([2, 3], ["a", "b"])
        specs = [Dense(2, 4), ReLU()]
        path = tmp_path / "m.nam"
        save_snapshot(path, MultiHeadNetwork(Network(specs, (2,), seed=0), attrs, seed=0),
                      [NAModel(2), NAModel(3)])
        self.rewrite_meta_line(path, "attributes", replacement=f"attributes = {attributes}")
        with pytest.raises(FormatError, match="metadata attributes = .*attribute names"):
            load_snapshot(path)

    def test_parameter_count_is_checked_before_anything_is_built(self, tmp_path):
        # A 1500-wide Dense layer and 1500 classes declared, no parameters
        # stored: building them first would take about 87 MB.
        meta = (b"kind = single\ninput_shape = 1500\narch = dense:1500:1500\n"
                b"classes = 1500\nunits = 1\ndecays = 0.0")
        path = tmp_path / "m.nam"
        path.write_bytes(b"NAM1" + struct.pack("<II", 1, len(meta)) + meta
                         + struct.pack("<Q", 0))
        assert path.stat().st_size < 120

        def load():
            with pytest.raises(FormatError, match="holds 0 parameters"):
                load_snapshot(path)

        assert traced_peak(load)[1] < 2**20
        assert cli_main(["eval", "--snapshot", str(path), "--data", str(tmp_path / "t.nld")]) == 2

    def test_unflat_network_output_is_a_format_error(self, tmp_path):
        path = write_single_snapshot(tmp_path)
        self.rewrite_meta_line(path, "input_shape", replacement="input_shape = 4x4x1")
        self.rewrite_meta_line(path, "arch", replacement="arch = conv:1:2:3")
        with pytest.raises(FormatError, match=r"output \(2, 2, 2\) is not flat"):
            load_snapshot(path)

    @pytest.mark.parametrize("replacement, message", [
        ("classes = 3\nclasses = 3", "duplicate key 'classes'"),
        ("arch = dense:2:3\narch = dense:2:3", "duplicate key 'arch'"),
        ("classes 3", "expected 'key = value'"),
    ], ids=["duplicated-classes", "duplicated-arch", "no-equals"])
    def test_metadata_is_config_text(self, tmp_path, replacement, message):
        """A duplicated key no longer silently wins, and a line without
        ``=`` is no longer read as a key with an empty value."""
        path = write_single_snapshot(tmp_path)
        self.rewrite_meta_line(path, replacement.partition(" ")[0], replacement=replacement)
        with pytest.raises(FormatError, match=f"architecture echo at offset 12: .*{message}"):
            load_snapshot(path)
        assert cli_main(["export-q", "--snapshot", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("attributes, key, value, message", [
        (None, "classes", "1", "a noise unit needs at least 2 classes"),
        (None, "decays", "0.0,-1.0", "finite and >= 0"),
        (None, "decays", "0.0,nan", "finite and >= 0"),
        (None, "decays", "0.0,inf", "finite and >= 0"),
        (None, "decays", "5.0,0.002", r"first \(the identity's\) 0.0"),
        ("a:2,b:3", "decays", "0.0,0.002;0.0,-inf", "finite and >= 0"),
        ("a:2,b:3", "decays", "0.0,0.002;1e-3,0.002", r"first \(the identity's\) 0.0"),
    ], ids=["one-class", "negative", "nan", "inf", "first-not-zero", "multi-minus-inf",
            "multi-first-not-zero"])
    def test_metadata_values_are_checked_where_they_enter(self, tmp_path, attributes, key,
                                                          value, message):
        """Each bad value is a FormatError naming its key, raised before
        anything is built; a decay of NaN or inf used to load."""
        models = [NAModel(c) for c in ([3] if attributes is None else [2, 3])]
        for model in models:
            model.add_unit(decay=0.002)
        trunk = Network([Dense(2, 4), ReLU(), *([Dense(4, 3)] if attributes is None else [])],
                        (2,), seed=0)
        view = (OneHead(trunk) if attributes is None
                else MultiHeadNetwork(trunk, AttributeSpec([2, 3], ["a", "b"]), seed=0))
        path = tmp_path / "m.nam"
        save_snapshot(path, view, models)
        self.rewrite_meta_line(path, key, replacement=f"{key} = {value}")
        with pytest.raises(FormatError, match=f"^bad snapshot metadata {key} = '{value}': "
                                              f".*{message}"):
            load_snapshot(path)
        assert cli_main(["export-q", "--snapshot", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("attributes", [None, "a:2,b:3"])
    @pytest.mark.parametrize("unit0", ["permutation", "one-ulp-off"])
    def test_unit_zero_must_be_the_identity(self, tmp_path, attributes, unit0):
        """Unit 0 is the identity by its position: a snapshot storing any
        other matrix there, even one ulp away, is a FormatError."""
        models = [NAModel(c) for c in ([3] if attributes is None else [2, 3])]
        for model in models:
            model.add_unit(decay=0.002)
        q = models[-1].units[0].q.data
        if unit0 == "permutation":
            q[...] = q[::-1].copy()
        else:
            q[0, 0] = np.nextafter(1.0, 0.0)
        trunk = Network([Dense(2, 4), ReLU(), *([Dense(4, 3)] if attributes is None else [])],
                        (2,), seed=0)
        view = (OneHead(trunk) if attributes is None
                else MultiHeadNetwork(trunk, AttributeSpec([2, 3], ["a", "b"]), seed=0))
        path = tmp_path / "m.nam"
        save_snapshot(path, view, models)
        with pytest.raises(FormatError, match="^snapshot unit 0 is not the identity$"):
            load_snapshot(path)

    @staticmethod
    def set_parameter(path, index, value):
        """Overwrite parameter ``index`` (negative counts from the end) of a snapshot."""
        blob = bytearray(path.read_bytes())
        _, meta_len = struct.unpack("<II", blob[4:12])
        start = 12 + meta_len + 8
        n = (len(blob) - start) // 8
        offset = start + 8 * (index % n)
        blob[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1], ids=["first-weight", "last-unit-entry"])
    def test_parameters_must_be_finite(self, tmp_path, capsys, index, value):
        """Such a snapshot used to load, and eval scored it with exit 0."""
        model = NAModel(3)
        model.add_unit(decay=0.002)
        path = tmp_path / "m.nam"
        save_snapshot(path, Network([Dense(2, 3)], (2,), seed=0), [model])
        save_dataset(Dataset(np.zeros((3, 2)), [0, 1, 2], 3, [0, 1, 2]), tmp_path / "d.nld")
        assert cli_main(["eval", "--snapshot", str(path), "--data", str(tmp_path / "d.nld")]) == 0
        capsys.readouterr()
        self.set_parameter(path, index, value)
        with pytest.raises(FormatError, match="^snapshot holds a non-finite parameter$"):
            load_snapshot(path)
        assert cli_main(["eval", "--snapshot", str(path), "--data", str(tmp_path / "d.nld")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error [config] snapshot holds a non-finite parameter\n"
        assert captured.out == ""

    def test_missing_metadata_key_exits_2(self, tmp_path, capsys):
        path = write_single_snapshot(tmp_path)
        self.rewrite_meta_line(path, "decays")
        assert cli_main(["export-q", "--snapshot", str(path), "--out", str(tmp_path)]) == 2
        assert "'decays'" in capsys.readouterr().err


class TestExports:
    def test_identity_unit_exports(self, tmp_path):
        model = NAModel(3)
        paths = export_q(model, tmp_path)
        q = load_q_csv(paths[0][0])
        np.testing.assert_array_equal(q, np.eye(3))
        pgm = paths[0][1].read_text().splitlines()
        assert pgm[0] == "P2" and pgm[1] == "3 3" and pgm[2] == "255"
        assert pgm[3].split() == ["255", "0", "0"]

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = NAModel(4)
            unit = model.add_unit()
            unit.q.data[...] = project_column_stochastic(rng.uniform(size=(4, 4)))
            paths = export_q(model, tmp_path, prefix=f"s{seed}_")
            back = load_q_csv(paths[1][0])
            np.testing.assert_array_equal(back, unit.q.data)

    def test_exported_columns_sum_to_one(self, tmp_path):
        rng = np.random.default_rng(5)
        model = NAModel(5)
        u = model.add_unit()
        u.q.data[...] = project_column_stochastic(rng.normal(size=(5, 5)))
        paths = export_q(model, tmp_path)
        for csv_path, _ in paths:
            np.testing.assert_allclose(load_q_csv(csv_path).sum(axis=0), 1.0, atol=1e-9)


class TestEvaluate:
    def test_uniform_random_predictor_binomial_oracle(self):
        # an untrained net is label-independent: error ~ (C-1)/C
        net = Network([Dense(3, 10)], (3,), seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(10_000, 3))
        true = rng.integers(0, 10, size=10_000)
        net2 = Network([Dense(3, 10)], (3,), seed=9)
        err = evaluate(net2, x, true)
        assert abs(err - 0.9) <= 0.02

    def test_missing_true_labels(self):
        net = Network([Dense(2, 2)], (2,), seed=0)
        with pytest.raises(DataError):
            evaluate(net, np.zeros((2, 2)), None)

    def test_perfect_model_zero_error(self):
        net = Network([Dense(2, 2)], (2,), seed=0)
        net.layers[0].w.data[...] = np.array([[5.0, -5.0], [-5.0, 5.0]])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        assert evaluate(net, x, np.array([0, 1, 0])) == 0.0

    def test_one_evaluator_for_every_view(self):
        """A ``Network`` and its ``OneHead`` give the top-1 error, a
        ``MultiHeadNetwork`` (per-attribute errors, joint error)."""
        rng = np.random.default_rng(14)
        x = rng.normal(size=(300, 2))
        net = Network([Dense(2, 6), ReLU(), Dense(6, 3)], (2,), seed=3)
        y = rng.integers(0, 3, size=300)
        single = _errors(OneHead(net), x, y)[1]
        assert evaluate(net, x, y) == evaluate(OneHead(net), x, y) == single
        assert 0.0 < single < 1.0
        mh = MultiHeadNetwork(Network([Dense(2, 6), ReLU()], (2,), seed=3),
                              AttributeSpec([3, 4]), seed=3)
        ys = np.stack([rng.integers(0, 3, size=300), rng.integers(0, 4, size=300)], axis=1)
        assert evaluate(mh, x, ys) == _errors(mh, x, ys)


class TestExtremeValues:
    """The writer never writes what the reader rejects. A value at the edge
    of what ``build_config`` accepts ends in a ConfigError, in a StageError,
    or in snapshots that each load back and that CLI ``eval`` scores. The
    patience and threshold add a unit every 2 stage epochs up to
    ``max_units``, so each new unit's decay is used. Numpy's overflow and
    invalid-value warnings of a diverging run are silenced around the run:
    the run's own checks are what is under test."""

    ENTRIES = {
        "data.synthetic.kind": "blobs",
        "data.synthetic.n_train": "60",
        "data.synthetic.n_test": "30",
        "noise.mode": "uniform",
        "noise.rho": "0.3",
        "arch.input_shape": "2",
        "arch.layers": "dense:2:8,relu,dense:8:3",
        "na.pretrain_epochs": "1",
        "na.stage_epochs": "6",
        "na.patience": "1",
        "na.improvement_threshold": "inf",
        "recursion.iterations": "1",
        "recursion.epochs": "2",
    }

    @pytest.mark.parametrize("max_units", ["3", "4"])
    @pytest.mark.parametrize("key", ["opt.lr", "opt.weight_decay", "na.decay_base",
                                     "na.decay_growth", "na.init_jitter"])
    def test_a_run_writes_only_loadable_snapshots(self, tmp_path, capsys, key, max_units):
        out = tmp_path / "run"
        entries = {**self.ENTRIES, key: "1e300", "na.max_units": max_units, "out": str(out)}
        try:
            cfg = build_config(entries)
        except ConfigError:
            return
        finished = ["snapshot_final.nam", "snapshot_stage0.nam"]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                run_experiment(cfg)
        except StageError as exc:
            assert isinstance(exc.cause, DivergenceError)
            finished = None
        snapshots = sorted(out.glob("snapshot_*.nam"))
        assert finished is None or [p.name for p in snapshots] == finished
        for path in snapshots:
            _, models = load_snapshot(path)
            assert [m.active_count for m in models] == [int(max_units)]
            assert cli_main(["eval", "--snapshot", str(path),
                             "--data", str(out / "test.nld")]) == 0
            assert "test error" in capsys.readouterr().out

    def test_an_overflow_with_finite_parameters_names_its_layer(self, tmp_path, capsys):
        """With ``opt.weight_decay = 1e300`` the first pretraining step leaves
        every parameter finite but huge, so the validation pass overflows in
        a matmul; the error names the layer where that first shows."""
        entries = {**self.ENTRIES, "na.pretrain_epochs": "2", "na.max_units": "3",
                   "opt.weight_decay": "1e300", "seed": "7", "out": str(tmp_path / "run")}
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error \[pretrain\] epoch 1: non-finite validation loss nan; "
                            r"every parameter is finite; first non-finite output: layer 2 "
                            r"\(Dense\), largest \|parameter\| [0-9.]+e\+29[0-9]\n", err)


class TestRunExperiment:
    def test_pipeline_writes_all_artifacts(self, tmp_path):
        cfg = make_cfg(tmp_path, extra="recursion.iterations = 1\nrecursion.epochs = 2\n")
        report = run_experiment(cfg)
        out = tmp_path / "run"
        for name in ("metrics.csv", "report.json", "config_echo.cfg", "train.nld",
                     "test.nld", "noisy_train.nld", "flips.csv",
                     "snapshot_stage0.nam", "snapshot_final.nam",
                     "q_stage0_unit01.csv", "q_final_unit01.pgm"):
            assert (out / name).exists(), name
        assert report.test_errors["final"] is not None
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "stage,iteration,epoch,split,metric,value"

    def test_metric_rows_well_formed(self, tmp_path):
        cfg = make_cfg(tmp_path, name="rows")
        run_experiment(cfg)
        lines = (tmp_path / "rows" / "metrics.csv").read_text().splitlines()
        stages = {line.split(",")[0] for line in lines[1:]}
        assert {"pretrain", "na", "final"} <= stages
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            float(parts[5])  # value column parses

    def test_failure_carries_stage_and_flushes_metrics(self, tmp_path):
        cfg = make_cfg(tmp_path, name="bad")
        cfg.arch_specs = parse_arch("dense:2:12,relu,dense:12:4")  # wrong class count
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "build"
        assert (tmp_path / "bad" / "metrics.csv").exists()

    @pytest.mark.parametrize("max_units, na_epochs, added_at", [(1, 4, []), (2, 8, [3])])
    def test_a_plateau_adds_a_unit_below_the_cap_and_stops_at_it(self, tmp_path, max_units,
                                                                  na_epochs, added_at):
        entries = parse_config_text(BASE_CFG.format(out=tmp_path / "run"))
        entries.update({"na.max_units": str(max_units), "na.stage_epochs": "20",
                        "na.improvement_threshold": "1e9"})  # every full history plateaus
        report = run_experiment(build_config(entries))
        assert report.stage0["na_epochs"] == na_epochs  # 2 * na.patience epochs per unit
        assert report.stage0["active_units"] == max_units
        rows = [line.split(",") for line in (tmp_path / "run" / "metrics.csv").read_text()
                .splitlines()]
        assert [int(row[2]) for row in rows if row[3] == "model"] == added_at

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_each_model_is_evaluated_once(self, tmp_path, monkeypatch, iterations):
        errors, evaluate_test_set = [], harness.evaluate

        def counted(*args):
            errors.append(evaluate_test_set(*args))
            return errors[-1]

        monkeypatch.setattr(harness, "evaluate", counted)
        cfg = make_cfg(tmp_path, extra=f"recursion.iterations = {iterations}\n"
                                       "recursion.epochs = 1\nrecursion.min_improvement = -1\n")
        report = run_experiment(cfg)
        assert len(errors) == 1 + iterations  # stage 0, then each round; not the final rows
        assert report.test_errors["final"] == errors[-1]
        rows = [line.split(",") for line in (tmp_path / "run" / "metrics.csv").read_text()
                .splitlines()]
        assert [row[5] for row in rows if row[0] == "final"] == [repr(float(errors[-1]))]
        if iterations:
            resumed = resume_recursion(cfg, tmp_path / "run" / "snapshot_stage0.nam",
                                       tmp_path / "resumed")
            assert len(errors) == 1 + 2 * iterations
            assert resumed.test_errors["final"] == errors[-1]

    def test_evaluation_ignores_test_given_labels(self, tmp_path):
        cfg = make_cfg(tmp_path, name="ev")
        train_ds, test_ds = resolve_data(cfg, None)
        net = Network(cfg.arch_specs, cfg.arch_input_shape, seed=1)
        base = evaluate(net, test_ds.features, test_ds.true_labels)
        scrambled = test_ds.given_labels.copy()
        scrambled[...] = 0
        test_ds.given_labels = scrambled
        assert evaluate(net, test_ds.features, test_ds.true_labels) == base


def split_case(n, d, val_fraction, seed=3):
    """A config, a one-head view and (train, test) sets of width ``d``."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    train = Dataset(rng.normal(size=(n, d)), labels, 3, (labels + 1) % 3)
    test = Dataset(rng.normal(size=(2, d)), [0, 1], 3, [0, 1])
    cfg = build_config({"seed": str(seed), "na.val_fraction": repr(val_fraction)})
    return cfg, OneHead(Network([Dense(d, 3)], (d,), seed=0)), train, test


class TestSplitInPlace:
    """``_split`` moves the fit rows to the front of the training features
    and copies the validation rows out; every part keeps its bytes."""

    def check(self, cfg, view, train, test, train_idx, val_idx):
        want = (train.features[train_idx].copy(), train.given_labels[train_idx],
                train.features[val_idx].copy(), train.given_labels[val_idx],
                train.true_labels[val_idx])
        features = train.features
        got = harness._split(cfg, view, train, test)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        xt, _, xv, _, _ = got
        assert np.shares_memory(xt, features) and xt.flags.c_contiguous
        assert not np.shares_memory(xv, features)

    @pytest.mark.parametrize("n, d, val_fraction", [
        (20_000, 24, 0.1), (6000, 20, 0.3), (1000, 144, 1e-4), (500, 6, 0.99), (3, 2, 0.34)])
    def test_parts_keep_their_bytes(self, n, d, val_fraction):
        cfg, view, train, test = split_case(n, d, val_fraction)
        train_idx, val_idx = split_train_val(n, val_fraction, cfg.seed)
        self.check(cfg, view, train, test, train_idx, val_idx)

    @pytest.mark.parametrize("move_values", [1, 7, 64])
    @pytest.mark.parametrize("val_at", ["start", "end", "drawn"])
    def test_fit_rows_in_one_run_or_scattered_in_any_block(self, monkeypatch, move_values,
                                                           val_at):
        n, n_val, d = 300, 45, 5
        runs = {"start": (np.arange(n_val, n), np.arange(n_val)),
                "end": (np.arange(n - n_val), np.arange(n - n_val, n)),
                "drawn": split_train_val(n, n_val / n, 3)}
        train_idx, val_idx = runs[val_at]
        monkeypatch.setattr(harness, "split_train_val", lambda *args: (train_idx, val_idx))
        monkeypatch.setattr(harness, "_MOVE_VALUES", move_values)
        self.check(*split_case(n, d, n_val / n), train_idx, val_idx)

    def test_peaks_at_the_validation_rows_and_one_block(self):
        """Beyond the validation rows and one block of moved rows, the split
        holds only index and label arrays: six of n int64 values at most,
        2.9 MB in all. A split that copies the fit rows out holds 11 MB."""
        n, d = 12_000, 128
        cfg, view, train, test = split_case(n, d, 0.1)
        (_, _, xv, _, _), peak = traced_peak(lambda: harness._split(cfg, view, train, test))
        assert peak <= xv.nbytes + 8 * harness._MOVE_VALUES + 6 * 8 * n


class TestRunMemory:
    def test_a_run_holds_its_training_features_about_once(self, tmp_path):
        """A run whose 10.24 MB of training features dominate its memory:
        the split moves the fit rows within them, and the rounds and the
        generated labels add little: it peaks at 1.43x the features. A run
        that copies the fit and validation rows out peaked at 2.42x."""
        n, d = 40_000, 32
        cfg = build_config({
            "seed": "3", "out": str(tmp_path / "run"), "data.source": "synthetic",
            "data.synthetic.kind": "blobs", "data.synthetic.classes": "3",
            "data.synthetic.dim": str(d), "data.synthetic.n_train": str(n),
            "data.synthetic.n_test": "300", "noise.mode": "uniform", "noise.rho": "0.3",
            "arch.input_shape": str(d), "arch.layers": f"dense:{d}:8,relu,dense:8:3",
            "opt.batch_size": "256", "na.pretrain_epochs": "1", "na.stage_epochs": "1",
            "recursion.iterations": "1", "recursion.epochs": "1"})
        report, peak = traced_peak(lambda: run_experiment(cfg))
        assert len(report.iterations) == 1
        assert peak <= 1.5 * n * d * 8


class TestCLI:
    def test_train_eval_export_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASE_CFG.format(out=tmp_path / "cli_run"))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["eval", "--snapshot", str(tmp_path / "cli_run" / "snapshot_final.nam"),
                         "--data", str(tmp_path / "cli_run" / "test.nld")]) == 0
        out = capsys.readouterr().out
        assert "test error" in out

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("definitely not = a valid key\n")
        assert cli_main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("attributes", [None, ["a", "b"]])
    def test_eval_without_true_labels_exits_2(self, tmp_path, capsys, attributes):
        x = np.zeros((3, 2))
        if attributes is None:
            path = write_single_snapshot(tmp_path)
            data = Dataset(x, [0, 1, 2], 3)
        else:
            attrs = AttributeSpec([2, 3], attributes)
            specs = [Dense(2, 4), ReLU()]
            path = tmp_path / "m.nam"
            save_snapshot(path, MultiHeadNetwork(Network(specs, (2,), seed=0), attrs, seed=0),
                          [NAModel(2), NAModel(3)])
            data = Dataset(x, [[0, 1], [1, 2], [0, 0]], 3)
        save_dataset(data, tmp_path / "d.nld")
        assert cli_main(["eval", "--snapshot", str(path), "--data", str(tmp_path / "d.nld")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error [config] evaluation needs true labels\n"
        assert captured.out == ""

    @pytest.mark.parametrize("attributes", [None, "a:3,b:3"])
    def test_train_and_recurse_print_one_error_line_per_attribute(self, tmp_path, capsys,
                                                                  attributes):
        cfg_path = tmp_path / "c.cfg"
        text = BASE_CFG.format(out=tmp_path / "run") + "recursion.iterations = 1\n"
        if attributes:
            text = text.replace("arch.input_shape = 2", "arch.input_shape = 4")
            text = text.replace("dense:2:12,relu,dense:12:3", "dense:4:12,relu")
            text += f"attributes = {attributes}\n"
        cfg_path.write_text(text)
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["recurse", "--config", str(cfg_path), "--out", str(tmp_path / "again"),
                         "--snapshot", str(tmp_path / "run" / "snapshot_stage0.nam")]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [""] if attributes is None else [" [a]", " [b]", " [ALL]"]
        for what, out, block in (("run", "run", lines[:len(names) + 1]),
                                 ("recursion", "again", lines[len(names) + 1:])):
            assert block[0] == f"{what} complete: artifacts in {tmp_path / out}"
            assert [line.rpartition(":")[0] for line in block[1:]] == [
                f"final test error{name}" for name in names]
            assert all(re.fullmatch(r"[0-9.e-]+", line.rpartition(": ")[2])
                       for line in block[1:])

    def test_eval_without_data_exits_2(self, tmp_path, capsys):
        path = write_single_snapshot(tmp_path)
        assert cli_main(["eval", "--snapshot", str(path)]) == 2
        assert "--data" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("eval", "--seed"), ("eval", "--config"),
                                               ("eval", "--out"), ("export-q", "--config"),
                                               ("export-q", "--seed")])
    def test_flags_a_subcommand_does_not_read_exit_2(self, tmp_path, capsys, command, flag):
        """eval reads only --snapshot and --data, export-q only --snapshot and --out."""
        path = write_single_snapshot(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--snapshot", str(path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    # Each size exceeds the 128 TiB of a 47-bit user address space, so
    # numpy's first allocation is refused at once, whatever the memory
    # overcommit setting of the host.
    @pytest.mark.parametrize("command, edit, stage, size", [
        ("train", ("n_train = 240", "n_train = 100000000000000"), "data", "728. TiB"),
        ("synth", ("n_train = 240", "n_train = 100000000000000"), "data", "728. TiB"),
        ("train", ("dense:2:12,relu,dense:12:3", "dense:2:10000000000000,relu,"
                   "dense:10000000000000:3"), "build", "146. TiB"),
    ], ids=["train-data", "synth-data", "train-build"])
    def test_a_run_too_large_for_memory_exits_2(self, tmp_path, capsys, command, edit, stage,
                                                size):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASE_CFG.format(out=tmp_path / "run").replace(*edit))
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{stage}] not enough memory: Unable to allocate {size} ")
        assert "Traceback" not in err
        if command == "train":
            assert (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("command, loader", [
        ("eval", "load_dataset"), ("inject", "load_dataset"), ("export-q", "load_snapshot")])
    def test_memory_error_outside_a_run_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                                loader):
        """A subcommand that runs no pipeline stage reports a refused
        allocation as one config error line."""
        def refuse(*_, **__):
            raise MemoryError("Unable to allocate 22.9 MiB for an array with shape (3000000, 1)")

        monkeypatch.setattr(f"noiseattn.cli.{loader}", refuse)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASE_CFG.format(out=tmp_path / "run"))
        snapshot = str(write_single_snapshot(tmp_path))
        args = {"eval": ["--snapshot", snapshot, "--data", "d.nld"],
                "inject": ["--config", str(cfg_path), "--data", "d.nld"],
                "export-q": ["--snapshot", snapshot, "--out", str(tmp_path / "q")]}[command]
        assert cli_main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error [config] not enough memory: Unable to allocate "
                                    "22.9 MiB for an array with shape (3000000, 1)"]
        assert "Traceback" not in err

    def test_missing_file_errors(self, tmp_path, capsys):
        """A missing snapshot or test set is one config error line, exit 2."""
        snapshot, data = write_single_snapshot(tmp_path), tmp_path / "d.nld"
        save_dataset(Dataset(np.zeros((3, 2)), [0, 1, 2], 3, true_labels=[0, 1, 2]), data)
        none_nam, none_nld = tmp_path / "none.nam", tmp_path / "none.nld"
        cases = [(["eval", "--snapshot", none_nam, "--data", none_nld], "snapshot", none_nam),
                 (["eval", "--snapshot", none_nam, "--data", data], "snapshot", none_nam),
                 (["eval", "--snapshot", snapshot, "--data", none_nld], "dataset", none_nld),
                 (["export-q", "--snapshot", none_nam, "--out", tmp_path / "q"], "snapshot",
                  none_nam)]
        for args, kind, path in cases:
            assert cli_main([str(a) for a in args]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"error [config] cannot read {kind} file {path}: [Errno 2] "
                f"No such file or directory: '{path}'"]
            assert captured.out == ""
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize("command", ["train", "recurse", "synth", "inject"])
    @pytest.mark.parametrize("how", ["config line", "flag"])
    def test_an_empty_out_is_a_config_error(self, tmp_path, capsys, monkeypatch, command,
                                            how):
        """``out =`` in a config or ``--out ''`` would write every artifact
        into the working directory; each is refused before anything is written."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        run = inputs / "run"
        text = BASE_CFG.format(out=run) + "recursion.iterations = 1\n"
        if how == "config line":
            text = text.replace(f"out = {run}", "out =")
        cfg_path = inputs / "c.cfg"
        cfg_path.write_text(text)
        snapshot = inputs / "m.nam"
        save_snapshot(snapshot, Network(parse_arch("dense:2:12,relu,dense:12:3"), (2,), seed=0),
                      [NAModel(3)])
        data = inputs / "train.nld"
        save_dataset(resolve_data(make_cfg(tmp_path), None)[0], data)
        extra = {"recurse": ["--snapshot", str(snapshot)], "inject": ["--data", str(data)]}
        flag = ["--out", ""] if how == "flag" else []
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli_main([command, "--config", str(cfg_path), *flag,
                         *extra.get(command, [])]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error [config] out: expected an output directory, got ''"]
        assert captured.out == ""
        assert list(cwd.iterdir()) == [] and not run.exists()

    def test_export_q_refuses_an_empty_out_and_defaults_to_the_working_directory(
            self, tmp_path, capsys, monkeypatch):
        snapshot = write_single_snapshot(tmp_path)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli_main(["export-q", "--snapshot", str(snapshot), "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error [config] --out: expected an output directory, got ''"]
        assert captured.out == "" and list(cwd.iterdir()) == []
        assert cli_main(["export-q", "--snapshot", str(snapshot)]) == 0
        assert sorted(p.name for p in cwd.iterdir()) == ["q_unit01.csv", "q_unit01.pgm"]


    @pytest.mark.parametrize("command", ["train", "recurse", "synth", "inject", "export-q"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASE_CFG.format(out=tmp_path / "unused") + "recursion.iterations = 1\n")
        data = tmp_path / "train.nld"
        save_dataset(resolve_data(make_cfg(tmp_path), None)[0], data)
        specs = parse_arch("dense:2:12,relu,dense:12:3")
        snapshot = tmp_path / "m.nam"
        save_snapshot(snapshot, Network(specs, (2,), seed=0), [NAModel(3)])
        afile = tmp_path / "afile"
        afile.write_text("keep")
        extra = {"recurse": ["--snapshot", str(snapshot)], "inject": ["--data", str(data)],
                 "export-q": ["--snapshot", str(snapshot)]}.get(command, [])
        config = [] if command == "export-q" else ["--config", str(cfg_path)]
        assert cli_main([command, *config, "--out", str(afile), *extra]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "keep"

    @pytest.mark.parametrize("command", ["train", "recurse", "synth", "inject", "export-q"])
    def test_an_out_the_system_refuses_exits_2(self, tmp_path, capsys, command):
        """A name longer than a file system allows used to end in a traceback."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASE_CFG.format(out=tmp_path / "unused") + "recursion.iterations = 1\n")
        data = tmp_path / "train.nld"
        save_dataset(resolve_data(make_cfg(tmp_path), None)[0], data)
        snapshot = tmp_path / "m.nam"
        save_snapshot(snapshot, Network(parse_arch("dense:2:12,relu,dense:12:3"), (2,), seed=0),
                      [NAModel(3)])
        extra = {"recurse": ["--snapshot", str(snapshot)], "inject": ["--data", str(data)],
                 "export-q": ["--snapshot", str(snapshot)]}.get(command, [])
        config = [] if command == "export-q" else ["--config", str(cfg_path)]
        out = tmp_path / ("x" * 300)
        assert cli_main([command, *config, "--out", str(out), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error [config] cannot make output directory {out}: File name too long"]
        assert captured.out == ""


class TestEvalOnTheChunkPool:
    """CLI ``eval`` of a test set with two full chunks and more: the same
    bytes on one CPU (inline) and on two (the chunk pool), and a chunk's
    refused allocation is one config error line."""

    N = 2 * EVAL_CHUNK + 300

    @classmethod
    def inputs(cls, tmp_path):
        """A three-head snapshot and a test set of ``N`` rows whose first
        feature is the row's index."""
        view = MultiHeadNetwork(Network([Dense(3, 8), ReLU()], (3,), seed=12),
                                AttributeSpec([3, 4, 2], ["a", "b", "c"]), seed=12)
        save_snapshot(tmp_path / "m.nam", view, [NAModel(3), NAModel(4), NAModel(2)])
        rng = np.random.default_rng(12)
        x = np.column_stack([np.arange(cls.N), rng.normal(size=(cls.N, 2))])
        labels = np.stack([rng.integers(0, c, cls.N) for c in (3, 4, 2)], axis=1)
        save_dataset(Dataset(x, labels, 4, labels), tmp_path / "t.nld")
        return ["eval", "--snapshot", str(tmp_path / "m.nam"), "--data", str(tmp_path / "t.nld")]

    def test_a_chunk_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("noiseattn.nn._cpus", lambda: 2)
        forward = MultiHeadNetwork.forward

        def refuse_chunk_1(self, batch, cache=True):
            if int(batch[0, 0]) // EVAL_CHUNK == 1:
                raise MemoryError("Unable to allocate 256 KiB for an array with shape (4096, 8)")
            return forward(self, batch, cache)

        monkeypatch.setattr(MultiHeadNetwork, "forward", refuse_chunk_1)
        assert cli_main(self.inputs(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error [config] not enough memory: Unable to "
                                             "allocate 256 KiB for an array with shape (4096, 8)"]

    # CLI eval in a fresh process held to the given CPUs before numpy loads;
    # stderr says whether the chunk pool ran.
    CHILD = """
import os, sys
os.sched_setaffinity(0, [int(cpu) for cpu in sys.argv[1].split(",")])
from noiseattn.cli import main
code = main(sys.argv[2:])
print("pool" if "concurrent.futures" in sys.modules else "inline", file=sys.stderr)
raise SystemExit(code)
"""

    def test_stdout_holds_across_cpus_and_blas_threads(self, tmp_path):
        """One and two CPUs, each at 1 and 2 BLAS threads, print the same
        bytes; one CPU evaluates inline and two on the pool."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("needs two CPUs")
        args = self.inputs(tmp_path)
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"),
                                *filter(None, [os.environ.get("PYTHONPATH")])])
        results = {}
        for allowed in (cpus[:1], cpus[:2]):
            for blas in ("1", "2"):
                proc = subprocess.run(
                    [sys.executable, "-c", self.CHILD, ",".join(map(str, allowed)), *args],
                    env={**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": path},
                    capture_output=True, timeout=120)
                results[len(allowed), blas] = proc.returncode, proc.stdout, proc.stderr
        assert {key: (code, err) for key, (code, _, err) in results.items()} == {
            (n, blas): (0, b"pool\n" if n == 2 else b"inline\n")
            for n in (1, 2) for blas in ("1", "2")}
        printed = {out for _, out, _ in results.values()}
        assert len(printed) == 1
        assert printed.pop().decode().splitlines()[-1].startswith("test error [ALL]: ")


class TestOneParser:
    """``main`` builds its argparse parser on the first call and reuses it,
    and every call parses into a fresh namespace."""

    def test_the_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        args = ["export-q", "--snapshot", str(write_single_snapshot(tmp_path)),
                "--out", str(tmp_path / "q")]
        assert cli_main(args) == 0
        assert len(built) == 7  # noiseattn and its six subcommands
        assert cli_main(args) == 0
        assert len(built) == 7
        assert cli._parser() is cli._parser()

    @staticmethod
    def inputs(tmp_path):
        """A config, a run's stage-0 and final snapshots and its train and
        test sets, outside the working directory the commands write into."""
        inputs = tmp_path / "inputs"
        cfg_path = inputs / "c.cfg"
        inputs.mkdir()
        cfg_path.write_text(BASE_CFG.format(out="out") + "recursion.iterations = 1\n")
        run_experiment(make_cfg(inputs, extra="recursion.iterations = 1\n"))
        return cfg_path, inputs / "run"

    @staticmethod
    def files(root):
        """Every file under ``root``: relative name -> bytes; report.json
        without its wall-clock time."""
        found = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name == "report.json":
                    data = re.sub(rb'"wall_clock_s": [0-9.e-]+', b"", data)
                found[str(path.relative_to(root))] = data
        return found

    @pytest.mark.parametrize("command", ["synth", "inject", "train", "recurse", "eval",
                                         "export-q"])
    def test_a_command_run_twice_gives_the_same_result(self, tmp_path, capsys, monkeypatch,
                                                       command):
        """The same exit code, stdout, stderr and files both times, with a
        usage error and ``--help`` between the two calls."""
        cfg_path, run = self.inputs(tmp_path)
        config = ["--config", str(cfg_path)]
        args = {"synth": config,
                "inject": [*config, "--data", str(run / "train.nld")],
                "train": config,
                "recurse": [*config, "--snapshot", str(run / "snapshot_stage0.nam")],
                "eval": ["--snapshot", str(run / "snapshot_final.nam"),
                         "--data", str(run / "test.nld")],
                "export-q": ["--snapshot", str(run / "snapshot_final.nam"), "--out", "out"],
                }[command]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        results = []
        for _ in range(2):
            code = cli_main([command, *args])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, self.files(cwd)))
            for path in cwd.iterdir():  # the process stays in cwd
                shutil.rmtree(path) if path.is_dir() else path.unlink()
            seed = ["--seed", "9"] if command in ("synth", "inject", "train", "recurse") else []
            with pytest.raises(SystemExit) as usage:
                cli_main([command, *args, *seed, "--bogus"])
            assert usage.value.code == 2
            with pytest.raises(SystemExit) as shown:
                cli_main([command, "--help"])
            assert shown.value.code == 0
            assert f"usage: noiseattn {command}" in capsys.readouterr().out
            assert list(cwd.iterdir()) == []
        assert results[0][0] == 0 and results[0][1] and results[0][2] == ""
        assert command == "eval" or results[0][3]
        assert results[1] == results[0]

    def test_a_loader_patched_after_the_first_call_takes_effect(self, tmp_path, capsys,
                                                                monkeypatch):
        snapshot, data = write_single_snapshot(tmp_path), tmp_path / "d.nld"
        save_dataset(Dataset(np.zeros((3, 2)), [0, 1, 2], 3, true_labels=[0, 1, 2]), data)
        args = ["eval", "--snapshot", str(snapshot), "--data", str(data)]
        assert cli_main(args) == 0
        first = capsys.readouterr()
        for loader in ("load_snapshot", "load_dataset"):
            def refuse(path, *_, loader=loader, **__):
                raise FormatError(f"{loader} patched for {path}")

            with monkeypatch.context() as patched:
                patched.setattr(f"noiseattn.cli.{loader}", refuse)
                assert cli_main(args) == 2
            path = snapshot if loader == "load_snapshot" else data
            assert capsys.readouterr().err == f"error [config] {loader} patched for {path}\n"
        assert cli_main(args) == 0
        assert capsys.readouterr() == first


class TestLabelBounds:
    """Each label column is checked against its own attribute's class count
    before any epoch; the dataset itself only bounds labels by the largest."""

    @staticmethod
    def write_sets(tmp_path, part, kind):
        rng = np.random.default_rng(0)
        paths = {}
        for name, n in (("train", 40), ("test", 20)):
            true = np.stack([rng.integers(0, 3, n), rng.integers(0, 4, n)], axis=1)
            given = true.copy()
            if name == part:
                (given if kind == "given" else true)[0, 0] = 3  # attribute a has 3 classes
            paths[name] = tmp_path / f"{name}.nld"
            save_dataset(Dataset(rng.normal(size=(n, 2)), given, 4, true), paths[name])
        return paths

    @pytest.mark.parametrize("part, kind", [("train", "given"), ("train", "true"),
                                            ("test", "given"), ("test", "true")])
    def test_label_above_its_attribute_exits_2_before_pretraining(self, tmp_path, capsys,
                                                                   part, kind):
        paths = self.write_sets(tmp_path, part, kind)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"""
out = {tmp_path / "run"}
attributes = a:3,b:4
data.source = nld
data.train_path = {paths["train"]}
data.test_path = {paths["test"]}
arch.input_shape = 2
arch.layers = dense:2:8,relu
na.pretrain_epochs = 1
na.stage_epochs = 1
""")
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{part} {kind} labels of attribute a must lie in [0, 3), got range [0, 3]" in err
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        assert not [row for row in rows if row.startswith("pretrain,")]

    def test_single_label_test_set_is_checked_against_the_network(self, tmp_path):
        train, test = resolve_data(make_cfg(tmp_path), None)
        true = test.true_labels.copy()
        true[0] = 3  # the network has 3 outputs; the test file declares 4 classes
        save_dataset(train, tmp_path / "train.nld")
        save_dataset(Dataset(test.features, test.given_labels, 4, true), tmp_path / "test.nld")
        entries = parse_config_text(BASE_CFG.format(out=tmp_path / "run"))
        entries.update({"data.source": "nld", "data.train_path": str(tmp_path / "train.nld"),
                        "data.test_path": str(tmp_path / "test.nld"), "noise.mode": "none"})
        with pytest.raises(StageError, match=r"test true labels must lie in \[0, 3\)"):
            run_experiment(build_config(entries))


class TestFit:
    """A dataset is checked against the heads of the model it meets, before
    any epoch or score: both sets in a run's build stage, and the test set
    of CLI ``eval``."""

    def test_eval_rejects_labels_beyond_a_single_label_snapshot(self, tmp_path, capsys):
        snapshot = write_single_snapshot(tmp_path)  # 3 classes
        labels = np.arange(10) % 5
        save_dataset(Dataset(np.zeros((10, 2)), labels, 5, labels), tmp_path / "t.nld")
        assert cli_main(["eval", "--snapshot", str(snapshot), "--data",
                         str(tmp_path / "t.nld")]) == 2
        assert "test given labels must lie in [0, 3), got range [0, 4]" in capsys.readouterr().err

    @pytest.mark.parametrize("columns, message", [
        ([3, 6], "test given labels of attribute b must lie in [0, 4), got range [0, 5]"),
        ([6], "test set has 1 attribute columns, the model has 2"),
    ], ids=["a:3,b:6", "b:6"])
    def test_eval_rejects_a_set_beyond_a_multi_label_snapshot(self, tmp_path, capsys, columns,
                                                              message):
        view = MultiHeadNetwork(Network([Dense(2, 4), ReLU()], (2,), seed=0),
                                AttributeSpec([3, 4], ["a", "b"]), seed=0)
        save_snapshot(tmp_path / "m.nam", view, [NAModel(3), NAModel(4)])
        labels = np.stack([np.arange(20) % c for c in columns], axis=1)
        save_dataset(Dataset(np.zeros((20, 2)), labels, 6, labels), tmp_path / "t.nld")
        assert cli_main(["eval", "--snapshot", str(tmp_path / "m.nam"), "--data",
                         str(tmp_path / "t.nld")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_train_rejects_a_set_of_another_width_in_build(self, tmp_path, capsys, part):
        sets = dict(zip(("train", "test"), resolve_data(make_cfg(tmp_path), None)))
        ds = sets[part]
        sets[part] = Dataset(np.hstack([ds.features, ds.features[:, :1]]), ds.given_labels,
                             ds.c, ds.true_labels)
        entries = parse_config_text(BASE_CFG.format(out=tmp_path / "run"))
        entries.update({"data.source": "nld", "noise.mode": "none"})
        for name, ds in sets.items():
            save_dataset(ds, tmp_path / f"{name}.nld")
            entries[f"data.{name}_path"] = str(tmp_path / f"{name}.nld")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (f"error [build] {part} set has 3 feature columns, "
                                           f"network input 2 takes 2\n")
        assert (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:] == []


class TestResume:
    ENTRIES = {
        "seed": "3",
        "data.source": "synthetic",
        "data.synthetic.kind": "blobs",
        "data.synthetic.classes": "4",
        "data.synthetic.dim": "4",
        "data.synthetic.n_train": "80",
        "data.synthetic.n_test": "40",
        "arch.input_shape": "4",
        "arch.layers": "flatten,dense:4:16,relu,dense:16:4",
        "recursion.iterations": "1",
        "recursion.epochs": "1",
    }

    @pytest.mark.parametrize("key, value, named", [
        (None, None, None),
        ("data.synthetic.classes", "3", "classes"),
        ("arch.layers", "flatten,dense:4:8,relu,dense:8:4", "arch"),
        ("arch.input_shape", "2x2x1", "input_shape"),
        ("attributes", "a:2,b:2", "attributes"),
    ], ids=["matching", "classes", "arch", "input_shape", "attributes"])
    def test_snapshot_must_match_the_config(self, tmp_path, capsys, key, value, named):
        specs = parse_arch(self.ENTRIES["arch.layers"])
        snapshot = tmp_path / "stage0.nam"
        save_snapshot(snapshot, Network(specs, (4,), seed=0), [NAModel(4)])
        entries = {**self.ENTRIES, "out": str(tmp_path / "resumed")}
        if key is not None:
            entries[key] = value
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        code = cli_main(["recurse", "--config", str(cfg_path), "--snapshot", str(snapshot)])
        assert code == (0 if named is None else 2)
        assert (named or "") in capsys.readouterr().err
        assert (tmp_path / "resumed" / "snapshot_final.nam").exists() == (named is None)

    def test_a_non_finite_decay_exits_2_before_the_rounds(self, tmp_path, capsys):
        """Such a snapshot used to load, and the first round then diverged
        with exit 1."""
        model = NAModel(4)
        model.add_unit(decay=0.002)
        snapshot = tmp_path / "stage0.nam"
        save_snapshot(snapshot, Network(parse_arch(self.ENTRIES["arch.layers"]), (4,), seed=0),
                      [model])
        TestSnapshots.rewrite_meta_line(snapshot, "decays", replacement="decays = 0.0,nan")
        entries = {**self.ENTRIES, "out": str(tmp_path / "resumed")}
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        assert cli_main(["recurse", "--config", str(cfg_path), "--snapshot", str(snapshot)]) == 2
        assert "bad snapshot metadata decays = '0.0,nan'" in capsys.readouterr().err
        assert not (tmp_path / "resumed" / "snapshot_final.nam").exists()

    def test_unit_zero_not_the_identity_exits_2(self, tmp_path, capsys):
        """``eval``, ``export-q`` and ``recurse`` all load through
        ``load_snapshot``; ``export-q`` used to write such a unit 0 out as
        ``q_unit01.csv``."""
        model = NAModel(4)
        model.units[0].q.data[...] = np.eye(4)[[1, 0, 3, 2]]
        snapshot = tmp_path / "stage0.nam"
        save_snapshot(snapshot, Network(parse_arch(self.ENTRIES["arch.layers"]), (4,), seed=0),
                      [model])
        entries = {**self.ENTRIES, "out": str(tmp_path / "resumed")}
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        save_dataset(Dataset(np.zeros((2, 4)), [0, 1], 4, [0, 1]), tmp_path / "d.nld")
        for argv in (["eval", "--snapshot", str(snapshot), "--data", str(tmp_path / "d.nld")],
                     ["export-q", "--snapshot", str(snapshot), "--out", str(tmp_path / "q")],
                     ["recurse", "--config", str(cfg_path), "--snapshot", str(snapshot)]):
            assert cli_main(argv) == 2
            assert "snapshot unit 0 is not the identity" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()
        assert not (tmp_path / "resumed" / "snapshot_final.nam").exists()


def _final_snapshot(path, *_):
    return str(path).endswith("snapshot_final.nam")


# stage -> (owner, attribute, which call fails), for each pipeline
TRAIN_STAGES = {
    "setup": (harness, "validate_paths", None),
    "data": (harness, "resolve_data", None),
    "build": (harness, "_split", None),
    "pretrain": (harness.Trainer, "train_epoch", 1),
    "na": (harness.Trainer, "train_epoch", 3),  # after na.pretrain_epochs = 2
    "recursion": (harness, "run_recursion", None),
    "eval": (harness, "save_snapshot", _final_snapshot),
}
RESUME_STAGES = {
    "resume": (harness, "load_snapshot", None),
    "data": (harness, "resolve_data", None),
    "recursion": (harness, "run_recursion", None),
    "eval": (harness, "save_snapshot", _final_snapshot),
}


class TestStageFailures:
    """A package error or a MemoryError raised in any stage of ``train`` or
    ``recurse`` ends as a StageError naming that stage, with metrics.csv
    written and no report.json; any other exception passes through as it is
    and writes neither."""

    EXTRA = "recursion.iterations = 1\nrecursion.epochs = 1\n"

    @staticmethod
    def fail_in(monkeypatch, stage_of, stage, exc):
        owner, attr, when = stage_of[stage]
        original, calls = getattr(owner, attr), []

        def failing(*args, **kwargs):
            calls.append(args)
            if when is None or when == len(calls) or callable(when) and when(*args):
                raise exc
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, failing)

    @staticmethod
    def check(run, out, stage, exc):
        if isinstance(exc, (DataError, MemoryError)):
            with pytest.raises(StageError) as err:
                run()
            assert err.value.stage == stage
            if isinstance(exc, DataError):
                assert err.value.cause is exc
            else:
                assert isinstance(err.value.cause, ConfigError)
                assert str(err.value.cause).startswith("not enough memory")
            assert (out / "metrics.csv").read_text().startswith("stage,iteration,")
        else:
            with pytest.raises(type(exc)) as err:
                run()
            assert err.value is exc
            assert not (out / "metrics.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.fixture(params=["DataError", "MemoryError", "KeyError"])
    def exc(self, request):
        return {"DataError": DataError("injected"), "MemoryError": MemoryError("injected"),
                "KeyError": KeyError("injected")}[request.param]

    @pytest.mark.parametrize("stage", list(TRAIN_STAGES))
    def test_train(self, tmp_path, monkeypatch, stage, exc):
        cfg = make_cfg(tmp_path, extra=self.EXTRA)
        self.fail_in(monkeypatch, TRAIN_STAGES, stage, exc)
        self.check(lambda: run_experiment(cfg), tmp_path / "run", stage, exc)

    @pytest.mark.parametrize("stage", list(RESUME_STAGES))
    def test_recurse(self, tmp_path, monkeypatch, stage, exc):
        cfg = make_cfg(tmp_path, extra=self.EXTRA)
        run_experiment(cfg)
        self.fail_in(monkeypatch, RESUME_STAGES, stage, exc)
        self.check(lambda: resume_recursion(cfg, tmp_path / "run" / "snapshot_stage0.nam",
                                            tmp_path / "resumed"),
                   tmp_path / "resumed", stage, exc)


class TestMetricsLog:
    def test_write_format(self, tmp_path):
        log = MetricsLog()
        log.add("na", 0, 3, "train", "loss", 0.5)
        path = tmp_path / "m.csv"
        log.write(path)
        assert path.read_text() == ("stage,iteration,epoch,split,metric,value\n"
                                    "na,0,3,train,loss,0.5\n")
