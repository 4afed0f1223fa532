"""Config parsing, snapshots, exports, evaluation, and the experiment driver."""

import struct

import numpy as np
import pytest

from noiseattn import (AttributeSpec, ConfigError, DataError, Dense, Conv2D, Flatten,
                       FormatError, MaxPool2x2, MultiHeadNetwork, NAModel, Network, ReLU,
                       StageError, build_config, evaluate, export_q, load_config, load_q_csv,
                       load_snapshot, parse_arch, parse_config_text, parse_input_shape,
                       resolve_data, run_experiment, save_snapshot, serialize_arch)
from noiseattn.attention import project_column_stochastic
from noiseattn.cli import main as cli_main
from noiseattn.harness import MetricsLog


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
    save_snapshot(path, Network([Dense(2, 3)], (2,), seed=0), [NAModel(3)], input_shape=(2,),
                  arch_specs=[Dense(2, 3)])
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
        for bad in ("dense:2", "conv:1:2", "swish", "dense:a:b"):
            with pytest.raises(ConfigError):
                parse_arch(bad)

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
        save_snapshot(path, net, [model], input_shape=(2,), arch_specs=specs)
        snap = load_snapshot(path)
        assert snap["kind"] == "single"
        np.testing.assert_array_equal(snap["net"].param_vector(), net.param_vector())
        back = snap["models"][0]
        assert back.active_count == 2
        assert back.units[1].decay == 0.002
        np.testing.assert_array_equal(back.units[1].q.data, unit.q.data)
        assert back.units[0].frozen and not back.units[1].frozen

    def test_corrupt_magic(self, tmp_path):
        net = Network([Dense(2, 3)], (2,), seed=0)
        path = tmp_path / "m.nam"
        save_snapshot(path, net, [NAModel(3)], input_shape=(2,), arch_specs=[Dense(2, 3)])
        blob = bytearray(path.read_bytes())
        blob[0] = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_snapshot(path)

    def test_parameter_count_validated(self, tmp_path):
        net = Network([Dense(2, 3)], (2,), seed=0)
        path = tmp_path / "m.nam"
        save_snapshot(path, net, [NAModel(3)], input_shape=(2,), arch_specs=[Dense(2, 3)])
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
        save_snapshot(path, net, [NAModel(2), NAModel(3)], input_shape=(2,), arch_specs=specs,
                      attributes=attrs)
        assert load_snapshot(path)["kind"] == "multi"
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
                          [NAModel(2), NAModel(3)], input_shape=(2,), arch_specs=specs,
                          attributes=attrs)
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
        save_snapshot(path, Network([Dense(2, 3)], (2,), seed=0), [model], input_shape=(2,),
                      arch_specs=[Dense(2, 3)])
        self.rewrite_meta_line(path, "classes", replacement="classes = 6")
        self.rewrite_meta_line(path, "units", replacement="units = 1")
        self.rewrite_meta_line(path, "decays", replacement="decays = 0.0")
        with pytest.raises(FormatError, match="outputs 3 classes"):
            load_snapshot(path)

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

    def test_evaluation_ignores_test_given_labels(self, tmp_path):
        cfg = make_cfg(tmp_path, name="ev")
        train_ds, test_ds, _ = resolve_data(cfg, None)
        net = Network(cfg.arch_specs, cfg.arch_input_shape, seed=1)
        base = evaluate(net, test_ds.features, test_ds.true_labels)
        scrambled = test_ds.given_labels.copy()
        scrambled[...] = 0
        test_ds.given_labels = scrambled
        assert evaluate(net, test_ds.features, test_ds.true_labels) == base


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

    def test_eval_without_data_exits_2(self, tmp_path, capsys):
        path = write_single_snapshot(tmp_path)
        assert cli_main(["eval", "--snapshot", str(path)]) == 2
        assert "--data" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path):
        assert cli_main(["eval", "--snapshot", str(tmp_path / "none.nam"),
                         "--data", str(tmp_path / "none.nld")]) in (1, 2)


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
        save_snapshot(snapshot, Network(specs, (4,), seed=0), [NAModel(4)], input_shape=(4,),
                      arch_specs=specs)
        entries = {**self.ENTRIES, "out": str(tmp_path / "resumed")}
        if key is not None:
            entries[key] = value
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        code = cli_main(["recurse", "--config", str(cfg_path), "--snapshot", str(snapshot)])
        assert code == (0 if named is None else 2)
        assert (named or "") in capsys.readouterr().err
        assert (tmp_path / "resumed" / "snapshot_final.nam").exists() == (named is None)


class TestMetricsLog:
    def test_write_format(self, tmp_path):
        log = MetricsLog()
        log.add("na", 0, 3, "train", "loss", 0.5)
        path = tmp_path / "m.csv"
        log.write(path)
        assert path.read_text() == ("stage,iteration,epoch,split,metric,value\n"
                                    "na,0,3,train,loss,0.5\n")
