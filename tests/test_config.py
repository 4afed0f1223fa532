"""The config key set and the checks made when a config is built."""

import math
import warnings
from dataclasses import fields

import pytest

from noiseattn import (AttributeSpec, ConfigError, RecursionSchedule, UnitSchedule, build_config,
                       config)
from noiseattn.cli import main as cli_main

# Every key build_config accepts, each with a valid value.
KEYS = {
    "seed": "1",
    "out": "runs/x",
    "attributes": "a:2,b:3",
    "data.source": "synthetic",
    "data.train_path": "train.nld",
    "data.test_path": "test.nld",
    "data.synthetic.kind": "blobs",
    "data.synthetic.seed": "3",
    "data.synthetic.classes": "3",
    "data.synthetic.dim": "2",
    "data.synthetic.sigma": "1.0",
    "data.synthetic.separation": "6.0",
    "data.synthetic.height": "8",
    "data.synthetic.width": "8",
    "data.synthetic.n_train": "10",
    "data.synthetic.n_test": "5",
    "noise.mode": "uniform",
    "noise.rho": "0.1",
    "noise.matrix_path": "m.csv",
    "noise.per_class": "0.1,0.2",
    "noise.seed": "4",
    "arch.input_shape": "2",
    "arch.layers": "dense:2:3",
    "opt.lr": "0.1",
    "opt.momentum": "0.5",
    "opt.weight_decay": "0.0",
    "opt.batch_size": "8",
    "na.pretrain_epochs": "2",
    "na.stage_epochs": "3",
    "na.max_units": "2",
    "na.patience": "1",
    "na.improvement_threshold": "0.01",
    "na.decay_base": "0.001",
    "na.decay_growth": "2.0",
    "na.init_jitter": "0.001",
    "na.val_fraction": "0.2",
    "recursion.iterations": "1",
    "recursion.alpha_base": "0.5",
    "recursion.epochs": "2",
    "recursion.min_improvement": "0.01",
}


class TestKeySet:
    def test_forty_keys(self):
        assert len(KEYS) == 40

    def test_build_config_reads_exactly_the_pinned_keys(self, monkeypatch):
        read = set()
        original = config._Entries.get

        def spy(self, key, default=None):
            read.add(key)
            return original(self, key, default)

        monkeypatch.setattr(config._Entries, "get", spy)
        build_config({})
        assert sorted(read) == sorted(KEYS)

    def test_every_pinned_key_is_accepted(self):
        cfg = build_config(KEYS)
        assert cfg.echo == KEYS

    def test_na_and_recursion_keys_are_the_section_fields(self):
        assert {f"na.{f.name}" for f in fields(UnitSchedule)} == {
            key for key in KEYS if key.startswith("na.")}
        assert {f"recursion.{f.name}" for f in fields(RecursionSchedule)} == {
            key for key in KEYS if key.startswith("recursion.")}


class TestNaN:
    @pytest.mark.parametrize("key, value", [("opt.lr", "nan"),
                                            ("na.improvement_threshold", "NaN"),
                                            ("recursion.min_improvement", "-nan"),
                                            ("noise.rho", "0.1,nan")])
    def test_nan_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: NaN"):
            build_config({key: value})

    def test_infinity_allowed(self):
        cfg = build_config({"na.improvement_threshold": "inf",
                            "recursion.min_improvement": "-inf"})
        assert cfg.na.improvement_threshold == math.inf
        assert cfg.recursion.min_improvement == -math.inf


class TestUnusableValues:
    """A hyperparameter the training code cannot use is a ConfigError at
    load. Such values used to run: an infinite ``init_jitter`` gave NaN
    units, an infinite ``decay_base`` wrote snapshots that ``load_snapshot``
    rejects, an overflowing last decay raised a bare OverflowError, and an
    infinite ``lr`` or ``weight_decay`` diverged."""

    @pytest.mark.parametrize("entries, message", [
        ({"opt.lr": "inf"}, r"opt\.lr must be positive and finite, got inf"),
        ({"opt.weight_decay": "inf"}, r"opt\.weight_decay must be finite and >= 0, got inf"),
        ({"na.decay_base": "inf"}, r"na\.decay_base must be finite and non-negative"),
        ({"na.decay_growth": "inf"}, r"na\.decay_growth must be finite and >= 1"),
        ({"na.init_jitter": "inf"}, r"na\.init_jitter must be finite and non-negative"),
        ({"na.decay_growth": "1e300", "na.max_units": "4"},
         r"na\.max_units = 4 overflows the last unit's decay"),
        ({"na.decay_base": "1e300", "na.decay_growth": "1e10", "na.max_units": "3"},
         r"na\.max_units = 3 overflows the last unit's decay"),
    ], ids=["lr", "weight_decay", "decay_base", "decay_growth", "init_jitter",
            "growth-overflows", "product-overflows"])
    def test_rejected_at_load(self, entries, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build_config(entries)

    def test_the_last_decay_is_what_is_checked(self):
        """``decay_for`` grows with the unit index, so a finite last decay
        bounds them all; the same growth with one unit fewer is legal."""
        na = build_config({"na.decay_growth": "1e300", "na.max_units": "3"}).na
        assert na.decay_for(3) == 1e-3 * 1e300

    def test_train_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"out = {tmp_path / 'run'}\nna.init_jitter = inf\n")
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error [config] na.init_jitter must be finite and non-negative\n")
        assert not (tmp_path / "run").exists()


# An infinite sigma or separation used to pass the config and end, after a
# numpy RuntimeWarning, in "features contain non-finite values", naming no key.
SYNTHETIC_NON_FINITE = [
    ("sigma", "inf", "data.synthetic.sigma must be finite and positive, got inf"),
    ("sigma", "-inf", "data.synthetic.sigma must be finite and positive, got -inf"),
    ("separation", "inf", "data.synthetic.separation must be finite, got inf"),
    ("separation", "-inf", "data.synthetic.separation must be finite, got -inf"),
]


class TestSyntheticSpecIsFinite:
    @pytest.mark.parametrize("name, value, message", SYNTHETIC_NON_FINITE)
    def test_rejected_at_load(self, name, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build_config({f"data.synthetic.{name}": value})

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("name, value, message", SYNTHETIC_NON_FINITE)
    def test_synth_and_train_exit_2(self, tmp_path, capsys, command, name, value, message):
        entries = {**RUN, f"data.synthetic.{name}": value, "out": str(tmp_path / "run")}
        assert cli_main([command, "--config", str(write_config(tmp_path, entries))]) == 2
        assert capsys.readouterr().err == f"error [config] {message}\n"
        assert not (tmp_path / "run").exists()


# A finite sigma or separation can still overflow the features; it used to
# print numpy RuntimeWarnings and end in "features contain non-finite values".
SYNTHETIC_OVERFLOW = [
    ({"data.synthetic.sigma": "1e308"},
     "data.synthetic.separation = 6.0 with data.synthetic.sigma = 1e+308 overflows the "
     "class centers"),
    ({"data.synthetic.separation": "1e308", "data.synthetic.dim": "1",
      "data.synthetic.classes": "10"},
     "data.synthetic.separation = 1e+308 with data.synthetic.sigma = 1.0 overflows the "
     "class centers"),
    ({"data.synthetic.kind": "moons", "data.synthetic.classes": "2",
      "data.synthetic.sigma": "1e308"},
     "data.synthetic.sigma = 1e+308 overflows the features"),
]


class TestSyntheticOverflow:
    @pytest.mark.parametrize("entries, message", SYNTHETIC_OVERFLOW,
                             ids=["blobs_sigma", "blobs_separation", "moons_sigma"])
    def test_synth_and_train_exit_2_naming_the_key(self, tmp_path, capsys, entries, message):
        path = write_config(tmp_path, {**RUN, **entries, "out": str(tmp_path / "run")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing from numpy
            assert cli_main(["synth", "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"error [config] {message}\n"
            assert cli_main(["train", "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"error [data] {message}\n"


class TestEmptyNoiseMatrix:
    """An empty ``noise.matrix_path`` file used to print numpy's "loadtxt:
    input contained no data" warning, then a (1, 0) matrix that is not square."""

    @pytest.mark.parametrize("command, stage", [("train", "data"), ("inject", "config")])
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, stage):
        matrix = tmp_path / "m.csv"
        matrix.write_text("")
        path = write_config(tmp_path, {**RUN, "noise.mode": "matrix",
                                       "noise.matrix_path": str(matrix),
                                       "out": str(tmp_path / "run")})
        data = []
        if command == "inject":
            assert cli_main(["synth", "--config", str(path)]) == 0
            capsys.readouterr()
            data = ["--data", str(tmp_path / "run" / "train.nld")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing from numpy
            assert cli_main([command, "--config", str(path), *data]) == 2
        assert capsys.readouterr().err == (
            f"error [{stage}] noise matrix {matrix} holds no values\n")


class TestRecursionEpochs:
    def test_absent_key_is_the_na_stage_length(self):
        assert build_config({}).recursion.epochs == build_config({}).na.stage_epochs
        assert build_config({"na.stage_epochs": "4"}).recursion.epochs == 4
        assert build_config({"na.stage_epochs": "0"}).recursion.epochs == 0  # no rounds

    def test_absent_key_needs_na_stage_epochs_for_rounds(self):
        with pytest.raises(ConfigError, match=r"^recursion\.epochs must be >= 1 when "
                                              r"iterations > 0, got 0$"):
            build_config({"recursion.iterations": "1", "na.stage_epochs": "0"})
        cfg = build_config({"recursion.iterations": "1", "na.stage_epochs": "0",
                            "recursion.epochs": "2"})
        assert cfg.recursion.epochs == 2


# a small run that trains, validates and recurses
RUN = {
    "seed": "7",
    "data.source": "synthetic",
    "data.synthetic.kind": "blobs",
    "data.synthetic.classes": "3",
    "data.synthetic.dim": "2",
    "data.synthetic.n_train": "60",
    "data.synthetic.n_test": "20",
    "arch.input_shape": "2",
    "arch.layers": "dense:2:8,relu,dense:8:3",
    "na.pretrain_epochs": "1",
    "na.stage_epochs": "2",
    "recursion.iterations": "1",
}


def write_config(tmp_path, entries):
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


class TestChecksAtLoad:
    @pytest.mark.parametrize("key, value", [
        (None, None),
        ("na.patience", "0"),
        ("na.max_units", "0"),
        ("na.pretrain_epochs", "0"),
        ("na.decay_growth", "0.5"),
        ("na.improvement_threshold", "0"),
        ("recursion.epochs", "0"),
        ("recursion.epochs", "-1"),
        ("recursion.alpha_base", "1.5"),
        ("na.val_fraction", "1.0"),
        ("na.val_fraction", "0"),
        ("opt.lr", "nan"),
        ("opt.lr", "0"),
        ("opt.momentum", "1.0"),
        ("opt.weight_decay", "-1"),
        ("noise.seed", "-1"),
        ("data.synthetic.seed", "-1"),
        ("data.synthetic.height", "-2"),
        ("data.synthetic.width", "0"),
    ])
    def test_train_exits_2_before_writing_anything(self, tmp_path, capsys, key, value):
        entries = {**RUN, "out": str(tmp_path / "run")}
        if key is not None:
            entries[key] = value
        code = cli_main(["train", "--config", str(write_config(tmp_path, entries))])
        err = capsys.readouterr().err
        if key is None:
            assert code == 0 and (tmp_path / "run" / "snapshot_final.nam").exists()
            return
        assert code == 2
        assert err.startswith("error [config] ") and key in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra, key", [
        ({"data.synthetic.kind": "patches", "data.synthetic.height": "-2"},
         "data.synthetic.height"),
        ({"noise.mode": "uniform", "noise.rho": "1.5"}, "noise.rho"),
        ({"noise.mode": "uniform", "noise.rho": "-0.1"}, "noise.rho"),
        ({"noise.mode": "uniform", "noise.rho": "0.1,0.2"}, "noise.rho"),
        ({"noise.mode": "per_class"}, "noise.per_class"),
        ({"noise.mode": "per_class", "noise.per_class": "0.1,1.5,0.2"}, "noise.per_class"),
        ({"noise.mode": "matrix"}, "noise.matrix_path"),
        ({"data.synthetic.dim": "0"}, "data.synthetic.dim"),
        ({"data.synthetic.classes": "1"}, "data.synthetic.classes"),
        ({"attributes": "a:3,b:4", "data.synthetic.kind": "patches"}, "data.synthetic.kind"),
        ({"attributes": "a:3,b:4", "data.synthetic.kind": "moons",
          "data.synthetic.classes": "2"}, "data.synthetic.kind"),
        ({"attributes": "a:3,b:4", "noise.mode": "per_class",
          "noise.per_class": "0.1,0.2,0.3"}, "noise.per_class"),
        ({"attributes": "a:3,b:4", "noise.mode": "per_class",
          "noise.per_class": "0.1,0.2,0.3,0.4"}, "noise.per_class"),
    ])
    def test_data_and_noise_checked_before_writing_anything(self, tmp_path, capsys, extra, key):
        entries = {**RUN, **extra, "out": str(tmp_path / "run")}
        code = cli_main(["train", "--config", str(write_config(tmp_path, entries))])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error [config] ") and key in err
        assert not (tmp_path / "run").exists()

    def test_inject_exits_2_on_a_negative_noise_seed(self, tmp_path, capsys):
        entries = {**RUN, "noise.mode": "uniform", "noise.rho": "0.2", "noise.seed": "-1",
                   "out": str(tmp_path / "run")}
        code = cli_main(["inject", "--config", str(write_config(tmp_path, entries)),
                         "--data", str(tmp_path / "train.nld")])
        assert code == 2
        assert capsys.readouterr().err == ("error [config] noise.seed must be non-negative, "
                                           "got -1\n")
        assert not (tmp_path / "run").exists()

    def test_a_long_integer_parses_as_one(self):
        # ints take no NaN test, which would overflow converting this to a float
        assert build_config({"seed": "1" + "0" * 400}).seed == 10 ** 400

    def test_rho_count_names_what_it_needs(self):
        with pytest.raises(ConfigError, match="^noise.rho needs 1 value, got 2$"):
            build_config({"noise.mode": "uniform", "noise.rho": "0.1,0.2"})
        with pytest.raises(ConfigError, match="^noise.rho needs 1 or 2 values, got 3$"):
            build_config({"attributes": "a:2,b:3", "noise.mode": "matrix",
                          "noise.matrix_path": "m.csv", "noise.rho": "0.1,0.2,0.3"})

    def test_noise_seed_defaults_to_the_run_seed_and_37(self):
        assert build_config({"seed": "5"}).noise.seed == (5, 37)
        assert build_config({"seed": "5", "noise.seed": "9"}).noise.seed == 9

    def test_per_class_rates_name_the_attribute_class_counts(self):
        with pytest.raises(ConfigError,
                           match=r"^noise.per_class has 3 rates, the attributes have \[3, 4\]"):
            build_config({"attributes": "a:3,b:4", "noise.mode": "per_class",
                          "noise.per_class": "0.1,0.2,0.3"})

    def test_per_class_rates_serve_attributes_of_one_class_count(self, tmp_path, capsys):
        entries = {**RUN, "attributes": "a:3,b:3", "noise.mode": "per_class",
                   "noise.per_class": "0.1,0.2,0.3", "arch.input_shape": "4",
                   "arch.layers": "dense:4:8,relu", "out": str(tmp_path / "run")}
        assert cli_main(["train", "--config", str(write_config(tmp_path, entries))]) == 0
        flips = (tmp_path / "run" / "flips.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in flips[1:]} == {"0", "1"}

    def test_multi_attribute_data_with_nld_source_ignores_the_synthetic_kind(self):
        cfg = build_config({"attributes": "a:3,b:4", "data.source": "nld",
                            "data.train_path": "train.nld", "data.test_path": "test.nld",
                            "data.synthetic.kind": "patches"})
        assert cfg.data.synthetic.kind == "patches"

    @pytest.mark.parametrize("attributes", ["a/x:3,b:3", "a:3,a:3", ":3,:3", "a:3,ALL:3"])
    def test_bad_attribute_names_exit_2_before_anything_is_written(self, tmp_path, capsys,
                                                                   attributes):
        entries = {**RUN, "attributes": attributes, "arch.input_shape": "4",
                   "arch.layers": "dense:4:8,relu", "out": str(tmp_path / "run")}
        assert cli_main(["train", "--config", str(write_config(tmp_path, entries))]) == 2
        assert capsys.readouterr().err.startswith("error [config] attribute names must be")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("names", [["a", "b", "c"], ["color", "shape"], ["x_1", "y-2"], []])
    def test_attribute_names_in_use_pass(self, names):
        spec = AttributeSpec([2] * max(len(names), 1), names)
        assert spec.names == (names or ["attr0"])

    @pytest.mark.parametrize("missing", ["data.train_path", "data.test_path"])
    def test_nld_source_needs_both_paths_before_anything_is_written(self, tmp_path, capsys,
                                                                     missing):
        entries = {**RUN, "data.source": "nld", "data.train_path": "train.nld",
                   "data.test_path": "test.nld", "out": str(tmp_path / "run")}
        del entries[missing]
        path = write_config(tmp_path, entries)
        for command in (["train"], ["inject", "--data", "train.nld"]):
            assert cli_main([*command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == ("error [config] data.source = nld needs "
                                               "data.train_path and data.test_path\n")
        assert not list((tmp_path / "run").glob("*"))

    def test_synth_needs_a_synthetic_source(self, tmp_path, capsys):
        entries = {**RUN, "data.source": "nld", "data.train_path": "train.nld",
                   "data.test_path": "test.nld", "out": str(tmp_path / "s2")}
        assert cli_main(["synth", "--config", str(write_config(tmp_path, entries))]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error [config] synth needs data.source = synthetic, got 'nld'\n"
        assert captured.out == ""
        assert not (tmp_path / "s2").exists()

    def test_rho_per_attribute_accepted(self):
        cfg = build_config({"attributes": "a:2,b:3", "noise.mode": "uniform",
                            "noise.rho": "0.1,0.2"})
        assert cfg.noise.rho == (0.1, 0.2)

    def test_resume_needs_a_round_before_reading_anything(self, tmp_path, capsys):
        entries = {**RUN, "recursion.iterations": "0", "out": str(tmp_path / "run")}
        code = cli_main(["recurse", "--config", str(write_config(tmp_path, entries)),
                         "--snapshot", str(tmp_path / "missing.nam")])
        assert code == 2
        assert "recursion.iterations must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
