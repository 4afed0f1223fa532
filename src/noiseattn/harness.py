"""Experiment runner: composes data, training, recursion, and exports.

The pipeline is: resolve data (optionally synthesize and inject noise),
pretrain the base network on the noisy labels, grow and train the noise
units until the schedule stops, run the recursive self-distillation
rounds, and evaluate through the base network only. Both pipelines run
in one ``_Run`` record; the final test rows repeat its latest test
errors, as no step runs after that evaluation. A single-label run is the
one-head case of the same code path: the heads view (``OneHead`` or
``MultiHeadNetwork``) is the model that each dataset must fit, that
``evaluate`` scores, that a snapshot is written from and read back as;
only the snapshot metadata, the flips.csv header, metric names and
report fields differ by kind. The split into fit and validation rows
consumes the training set: it moves the fit rows to the front of the
set's own feature array, so a run holds its training features about
once, not twice. Every artifact is a pure function of (config, seed);
wall-clock time is kept out of metrics.csv so reruns are byte-identical.

A test set is scored from its file. The data stage streams a generated
test set into ``test.nld`` in the output directory, a run's or a
resume's, one block at a time; a loaded one, ``data.test_path``, is
opened as ``noiseattn eval`` opens it and its features are checked one
``EVAL_CHUNK`` chunk at a time. Either way the data stage never holds
the test features, and ``resolve_data`` returns the set with the file's
``data.FeatureFile`` for features. Each evaluation then opens the file,
and each ``EVAL_CHUNK`` chunk reads, checks and scores only its own rows,
in the chunks, row order and pool rule of an in-memory evaluation, so no
bit moves. A run holds its test labels, not its test features. A file
changed under the run is a ``FormatError`` of the stage that reads it,
and a write the system refuses is a ``ConfigError`` of the stage that
writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .attention import NAModel
from .config import (ExperimentConfig, _parse_attributes, parse_arch, parse_config_text,
                     parse_input_shape, serialize_arch, serialize_attributes,
                     serialize_input_shape, validate_paths)
from .data import (_Reader, _write, _write_text, generate_synthetic, generate_synthetic_multi,
                   inject_noise, load_dataset, save_dataset)
from .errors import (ConfigError, DataError, FormatError, NoiseAttnError, StageError, in_epoch,
                     out_of_memory)
from .multihead import MultiHeadNetwork, _errors, evaluate_all_metric
from .nn import EVAL_CHUNK, Dense, Network, check_labels, label_columns, param_count
from .recursion import run_recursion
from .training import OneHead, Trainer, _loss_total, _param_chain, split_train_val

SNAPSHOT_MAGIC = b"NAM1"
SNAPSHOT_VERSION = 1


# ---------------------------------------------------------------------------
# Metrics


class MetricsLog:
    """Row buffer for the stable six-column metrics CSV."""

    COLUMNS = ("stage", "iteration", "epoch", "split", "metric", "value")

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, stage, iteration, epoch, split, metric, value):
        self.rows.append((stage, int(iteration), int(epoch), split, metric, float(value)))

    def write(self, path):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")  # byte-stable across platforms
        writer.writerow(self.COLUMNS)
        for stage, iteration, epoch, split, metric, value in self.rows:
            writer.writerow([stage, iteration, epoch, split, metric, repr(value)])
        _write_text(path, text.getvalue())


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(view, test_set):
    """Test error of the heads view ``view`` on the true labels of
    ``test_set``, through the base network only: the top-1 error of a
    ``OneHead``, or (per-attribute errors, joint error) of a
    ``MultiHeadNetwork``. The set's features are its ``FeatureFile``,
    which the call opens, so each evaluation chunk reads its own rows."""
    with test_set.features as rows:
        if view.attributes is None:
            return _errors(view, rows, test_set.true_labels)[1]
        return evaluate_all_metric(view, rows, test_set.true_labels)


# ---------------------------------------------------------------------------
# Learned-unit exports


def _write_pgm(path, q):
    """P2 ASCII PGM, maxval 255: pixel (j, i) = round(255 * q[j, i])."""
    pixels = np.rint(np.clip(q, 0.0, 1.0) * 255).astype(int)
    lines = ["P2", f"{q.shape[1]} {q.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    _write_text(path, "\n".join(lines) + "\n")


def _make_out_dir(path) -> Path:
    """Create an output directory; a file in its place, or any path the
    system refuses (too long, not permitted), is a ConfigError naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output path {out} is not a directory") from exc
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror or exc}") from exc
    return out


def export_q(model: NAModel, out_dir, prefix: str = "q_"):
    """Write one full-precision CSV and one PGM heatmap per unit."""
    out_dir = _make_out_dir(out_dir)
    paths = []
    for m, q in enumerate(model.unit_matrices(), start=1):
        csv_path = out_dir / f"{prefix}unit{m:02d}.csv"
        pgm_path = out_dir / f"{prefix}unit{m:02d}.pgm"
        row = ",".join(["%.17g"] * q.shape[1]) + "\n"  # as np.savetxt formats a row
        _write_text(csv_path, "".join(row % tuple(values) for values in q))
        _write_pgm(pgm_path, q)
        paths.append((csv_path, pgm_path))
    return paths


def _export_models(view, models, out_dir, prefix):
    """export_q for the model of every head of ``view``; multi-label file
    names carry the attribute name after ``prefix``."""
    return [pair for name, model in zip(view.names, models)
            for pair in export_q(model, out_dir, prefix=prefix + (f"{name}_" if name else ""))]


def load_q_csv(path) -> np.ndarray:
    """Read a unit CSV back; %.17g output makes this bit-exact."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))


# ---------------------------------------------------------------------------
# Model snapshots


def _meta_lines(view, models):
    lines = [f"kind = {'single' if view.attributes is None else 'multi'}",
             f"input_shape = {serialize_input_shape(view.trunk.input_shape)}",
             f"arch = {serialize_arch(view.trunk.specs)}"]
    if view.attributes is None:
        lines.append(f"classes = {view.class_counts[0]}")
    else:
        lines.append(f"attributes = {serialize_attributes(view.attributes)}")
    lines.append("units = " + ";".join(str(m.active_count) for m in models))
    lines.append("decays = " + ";".join(
        ",".join(repr(u.decay) for u in m.units) for m in models))
    return "\n".join(lines)


def save_snapshot(path, view, models):
    """Write a NAM snapshot through ``data._write``: magic "NAM1", u32
    version, u32 metadata length, the metadata lines, u64 parameter count,
    then each parameter as float64 in ``_param_chain`` order. ``view`` is a
    heads view with one model per head; the header's kind, input shape,
    arch and classes (or attributes) are read from it, so they describe
    the parameters written."""
    meta = _meta_lines(view, models).encode()
    chain = [p for _, p in _param_chain(view, models)]
    head = (SNAPSHOT_MAGIC + struct.pack("<II", SNAPSHOT_VERSION, len(meta)) + meta
            + struct.pack("<Q", sum(p.size for p in chain)))
    _write(path, head, [(p.data, "<f8") for p in chain])


def load_snapshot(path):
    """Rebuild (heads view, noise models), a ``OneHead`` or a
    ``MultiHeadNetwork`` with one model per head, through ``data._Reader``.
    The metadata is config text (a duplicated key or a line without ``=``
    is a ``FormatError``) holding one unit and one decay group per attribute,
    at least 2 classes, and finite decays >= 0, each group's first 0.0. The
    parameter count it implies, the header's count and the bytes left are
    checked before anything is built, so a file cannot make the loader
    allocate more than a few times its size. Every parameter must be finite
    and each model's unit 0, the identity, byte-equal to ``np.eye``."""
    with _Reader(path, "snapshot", SNAPSHOT_MAGIC, SNAPSHOT_VERSION) as reader:
        (meta_len,) = reader.unpack("<I", "header")
        try:
            meta = parse_config_text(reader.take(meta_len, "architecture echo").decode())
        except (UnicodeDecodeError, ConfigError) as exc:
            raise FormatError(f"bad snapshot architecture echo at offset 12: {exc}") from exc
        (n_params,) = reader.unpack("<Q", "parameter count")

        def field(key, parse=str):
            if key not in meta:
                raise FormatError(f"snapshot metadata lacks the {key!r} key")
            try:
                return parse(meta[key])
            except ValueError as exc:
                raise FormatError(f"bad snapshot metadata {key} = {meta[key]!r}: {exc}") from exc

        kind = field("kind")
        if kind not in ("single", "multi"):
            raise FormatError(f"unknown snapshot kind {kind!r}")
        arch_specs = field("arch", parse_arch)
        input_shape = field("input_shape", parse_input_shape)
        unit_counts = field("units", lambda v: [int(u) for u in v.split(";")])
        decay_groups = field("decays", lambda v: [[float(d) for d in group.split(",")]
                                                  for group in v.split(";")])
        attributes = field("attributes", _parse_attributes) if kind == "multi" else None
        class_counts = [field("classes", int)] if attributes is None else attributes.class_counts
        if class_counts[0] < 2:  # a multi-label AttributeSpec checks its own
            raise FormatError(f"bad snapshot metadata classes = {meta['classes']!r}: "
                              f"a noise unit needs at least 2 classes")
        if not all(g[0] == 0.0 and all(0.0 <= d < np.inf for d in g) for g in decay_groups):
            raise FormatError(f"bad snapshot metadata decays = {meta['decays']!r}: decays must "
                              f"be finite and >= 0, each group's first (the identity's) 0.0")
        if not len(unit_counts) == len(decay_groups) == len(class_counts):
            raise FormatError(f"snapshot metadata holds {len(unit_counts)} unit and "
                              f"{len(decay_groups)} decay groups for {len(class_counts)} "
                              f"attribute(s)")
        if any(len(decays) != units for units, decays in zip(unit_counts, decay_groups)):
            raise FormatError("unit/decay counts disagree in snapshot metadata")

        expected, out_shape = param_count(arch_specs, input_shape)
        if len(out_shape) != 1:
            raise FormatError(f"snapshot network output {out_shape} is not flat")
        if attributes is None:
            if out_shape[0] != class_counts[0]:
                raise FormatError(f"snapshot network outputs {out_shape[0]} classes, "
                                  f"metadata declares {class_counts[0]}")
        else:  # one Dense head per attribute
            expected += sum(param_count([Dense(out_shape[0], c)], out_shape)[0]
                            for c in class_counts)
        expected += sum(units * c * c for units, c in zip(unit_counts, class_counts))
        if n_params != expected:
            raise FormatError(f"snapshot holds {n_params} parameters, architecture echo "
                              f"needs {expected}")
        vec = reader.array(n_params, "<f8", np.float64, "parameters")
        reader.done()
    if not np.isfinite(vec).all():
        raise FormatError("snapshot holds a non-finite parameter")

    trunk = Network(arch_specs, input_shape, seed=0)
    view = OneHead(trunk) if attributes is None else MultiHeadNetwork(trunk, attributes)
    models = [NAModel(c) for c in class_counts]
    for model, decays in zip(models, decay_groups):
        for decay in decays[1:]:
            model.add_unit(decay=decay)
    pos = 0
    for _, p in _param_chain(view, models):
        p.data[...] = vec[pos:pos + p.size].reshape(p.data.shape)
        pos += p.size
    if any(m.units[0].q.data.tobytes() != np.eye(m.n_classes).tobytes() for m in models):
        raise FormatError("snapshot unit 0 is not the identity")
    return view, models


# ---------------------------------------------------------------------------
# Data resolution


def _inject_and_save(cfg: ExperimentConfig, dataset, out_dir):
    """Corrupt the given labels per ``cfg.noise``; returns (noisy dataset,
    flipped indices), one index array per label column. Writes
    noisy_train.nld and flips.csv in ``out_dir``: ``index`` rows for
    single-label data, else ``attribute,index`` rows, one per flip of each
    column."""
    if dataset.k and cfg.attributes is None:
        raise ConfigError("multi-attribute dataset needs an attributes config")
    counts = cfg.attributes.class_counts if dataset.k else [dataset.c]
    noisy, flips = inject_noise(dataset, cfg.noise, counts)
    save_dataset(noisy, Path(out_dir) / "noisy_train.nld")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["attribute", "index"] if noisy.k else ["index"])
    for column, idx in enumerate(flips):
        rows = idx.tolist()
        writer.writerows(zip([column] * len(rows), rows) if noisy.k else zip(rows))
    _write_text(Path(out_dir) / "flips.csv", text.getvalue())
    return noisy, flips


def resolve_data(cfg: ExperimentConfig, out_dir):
    """Produce (train, test) datasets per config and save their artifacts
    in ``out_dir``. Injection corrupts training labels only; test sets keep
    given = true. A generated test set streams into ``test.nld`` there and
    a generated training set is saved as ``train.nld``. A loaded test set,
    ``data.test_path``, is opened as ``noiseattn eval`` opens it, its sizes
    and labels read and checked, and its features read and checked one
    ``EVAL_CHUNK`` chunk at a time, so a non-finite one, or a set without
    rows, is an error of this stage. Either way the test set's features are
    its ``FeatureFile``."""
    if cfg.data.source == "synthetic":
        test_path = Path(out_dir) / "test.nld"
        if cfg.attributes is not None:
            train, test = generate_synthetic_multi(cfg.data.synthetic,
                                                   cfg.attributes.class_counts, test_path)
        else:
            train, test = generate_synthetic(cfg.data.synthetic, test_path)
        save_dataset(train, Path(out_dir) / "train.nld")
    else:
        train = load_dataset(cfg.data.train_path)
        test = load_dataset(cfg.data.test_path, features=False)
        if not test.n:
            raise DataError(f"test set {cfg.data.test_path} holds no rows")
        with test.features as rows:
            for start in range(0, test.n, EVAL_CHUNK):
                rows[start:start + EVAL_CHUNK]  # read to check, then dropped

    if cfg.noise.mode != "none":
        train = _inject_and_save(cfg, train, out_dir)[0]
    return train, test


# ---------------------------------------------------------------------------
# Experiment driver


@dataclass
class RunReport:
    config_echo: dict
    seed: int
    version: str
    out_dir: str
    wall_clock_s: float = 0.0
    stage0: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    test_errors: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


class _Run:
    """One run of a pipeline: its config, output directory, metrics and
    report, the stage it is in and the test errors of its latest
    evaluation. Leaving the ``with`` block writes metrics.csv, then on
    success report.json with the wall-clock time; a package error or a
    MemoryError, after metrics.csv, is raised as a StageError naming the
    stage, and so is a refused write of either file, unless the stage
    failed first. Any other exception passes through and writes nothing."""

    def __init__(self, cfg: ExperimentConfig, out, stage: str):
        self.cfg, self.out, self.stage, self.errors = cfg, Path(out), stage, None
        self.metrics = MetricsLog()
        self.report = RunReport(config_echo=dict(cfg.echo), seed=cfg.seed,
                                version=__version__, out_dir=str(self.out))

    def __enter__(self):
        self.started = time.perf_counter()
        _make_out_dir(self.out)
        return self

    def __exit__(self, kind, exc, traceback):
        if exc is not None and not isinstance(exc, (NoiseAttnError, MemoryError)):
            return False
        try:
            self.metrics.write(self.out / "metrics.csv")
            if exc is None:
                self.report.wall_clock_s = time.perf_counter() - self.started
                _write_text(self.out / "report.json", self.report.to_json())
        except ConfigError as refused:
            if exc is None:
                exc = refused
        if exc is not None:
            cause = exc if isinstance(exc, NoiseAttnError) else out_of_memory(exc)
            raise StageError(self.stage, cause) from exc
        return False


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute the full configured pipeline and write all artifacts."""
    with _Run(cfg, cfg.out_dir, "setup") as run:
        validate_paths(cfg)
        _write_text(run.out / "config_echo.cfg",
                    "".join(f"{k} = {v}\n" for k, v in cfg.echo.items()))
        run.stage = "data"
        train_ds, test_ds = resolve_data(cfg, run.out)
        _run(run, train_ds, test_ds)
    return run.report


def _check_arch(cfg: ExperimentConfig):
    if cfg.arch_specs is None or cfg.arch_input_shape is None:
        raise ConfigError("arch.layers and arch.input_shape are required for training")


def _check_fit(view, ds, part):
    """The ``part`` set ``ds`` must fit the heads of ``view``: one feature
    column per network input, one label column per attribute (none for a
    single-label model), and each label column, given and true, within its
    own head's class count."""
    width = math.prod(view.trunk.input_shape)
    if ds.d != width:
        raise ConfigError(f"{part} set has {ds.d} feature columns, network input "
                          f"{serialize_input_shape(view.trunk.input_shape)} takes {width}")
    k = 0 if view.attributes is None else len(view.names)
    if ds.k != k:
        raise ConfigError(f"{part} set has {ds.k} attribute columns, the model has {k}")
    for kind, labels in (("given", ds.given_labels), ("true", ds.true_labels)):
        if labels is not None:
            for name, c, column in zip(view.names, view.class_counts, label_columns(labels)):
                of = f" of attribute {name}" if name else ""
                check_labels(column, c, f"{part} {kind} labels{of}")


_MOVE_VALUES = 1 << 17  # float64 values per block of rows the split moves: 1 MB


def _split(cfg, view, train_ds, test_ds):
    """Check both datasets against the heads of ``view``; returns the fit
    and validation parts as (xt, yt, xv, yv, validation true labels or
    None).

    The split consumes the training set: the validation rows are copied
    out, then the fit rows are moved, in order, to the front of
    ``train_ds.features``, one block of about 1 MB at a time, and ``xt``
    is a view of that front. A block never overwrites a row a later block
    reads, as the fit indices are sorted and the k-th is at least k. So
    the split holds the validation rows and one block beyond the set, and
    every value is moved, not computed. Labels are copied."""
    for part, ds in (("train", train_ds), ("test", test_ds)):
        _check_fit(view, ds, part)
    if view.attributes is None and view.class_counts != [train_ds.c]:
        raise ConfigError(f"network outputs {view.class_counts[0]} classes, "
                          f"dataset has {train_ds.c}")
    train_idx, val_idx = split_train_val(train_ds.n, cfg.na.val_fraction, cfg.seed)
    val_true = None if train_ds.true_labels is None else train_ds.true_labels[val_idx]
    x = train_ds.features
    xv = x[val_idx]
    step = max(1, _MOVE_VALUES // train_ds.d)
    for start in range(0, len(train_idx), step):
        rows = train_idx[start:start + step]
        x[start:start + len(rows)] = x[rows]
    return (x[:len(train_idx)], train_ds.given_labels[train_idx],
            xv, train_ds.given_labels[val_idx], val_true)


def _test_rows(run, view, test_ds, stage_name, iteration, epoch):
    """Test error through the base network, kept on ``run`` as its latest
    evaluation and written to its metrics: ``error`` for a single-label
    run; ``error.<name>`` per attribute and ``error.ALL`` for a multi-label
    run, whose errors are (per-attribute errors, joint error). Without
    ``test_ds`` the rows repeat the latest evaluation."""
    if test_ds is not None:
        run.errors = evaluate(view, test_ds)
    if view.attributes is None:
        rows = [("error", run.errors)]
    else:
        rows = [*zip([f"error.{name}" for name in view.names], run.errors[0]),
                ("error.ALL", run.errors[1])]
    for metric, value in rows:
        run.metrics.add(stage_name, iteration, epoch, "test", metric, value)


def _run(run, train_ds, test_ds):
    cfg = run.cfg
    run.stage = "build"
    _check_arch(cfg)
    net = Network(cfg.arch_specs, cfg.arch_input_shape, seed=(cfg.seed, 1))
    view = (OneHead(net) if cfg.attributes is None
            else MultiHeadNetwork(net, cfg.attributes, seed=cfg.seed))
    split = _split(cfg, view, train_ds, test_ds)
    xt, yt, xv, yv, _ = split
    trainer = Trainer(view, cfg.opt, seed=cfg.seed)
    models = trainer.na_models
    suffixes = [f".{name}" if name else "" for name in view.names]

    run.stage = "pretrain"
    for epoch in range(cfg.na.pretrain_epochs):
        with in_epoch(epoch + 1):
            tr = trainer.train_epoch(xt, yt)
            vl = _loss_total(trainer.val_loss(xv, yv))
        run.metrics.add("pretrain", 0, epoch, "train", "loss", tr)
        run.metrics.add("pretrain", 0, epoch, "val", "loss", vl)

    run.stage = "na"
    histories: list[list[float]] = [[] for _ in models]
    stopped = [False] * len(models)
    na_epochs = 0
    for epoch in range(cfg.na.stage_epochs):
        with in_epoch(epoch + 1):
            tr = trainer.train_epoch(xt, yt)
            per_attr = trainer.val_loss(xv, yv)
        na_epochs = epoch + 1
        run.metrics.add("na", 0, epoch, "train", "loss", tr)
        for k, (suffix, vl) in enumerate(zip(suffixes, per_attr)):
            run.metrics.add("na", 0, epoch, "val", "loss" + suffix, vl)
            if stopped[k]:
                continue
            histories[k].append(vl)
            if not cfg.na.plateaued(histories[k]):
                continue
            stopped[k] = models[k].active_count >= cfg.na.max_units
            if not stopped[k]:
                trainer.add_unit(cfg.na, k)
                histories[k].clear()
                run.metrics.add("na", 0, epoch, "model", "active_units" + suffix,
                                models[k].active_count)
        if all(stopped):
            break

    if test_ds.true_labels is not None:
        _test_rows(run, view, test_ds, "na", 0, max(na_epochs - 1, 0))
    _save_stage(run, view, models, "stage0")
    if view.attributes is None:
        run.report.stage0 = {"pretrain_epochs": cfg.na.pretrain_epochs, "na_epochs": na_epochs,
                             "active_units": models[0].active_count, "test_error": run.errors}
        run.report.test_errors["stage0"] = run.errors
    else:
        run.report.stage0 = {"na_epochs": na_epochs,
                             "active_units": [m.active_count for m in models],
                             "test_errors": run.errors}

    _finish(run, trainer, split, test_ds)


def _finish(run, trainer, split, test_ds):
    """The recursion rounds, if any, each evaluated when the test set has
    true labels, then the final test rows and save of the model on
    ``trainer``. No step runs after the latest evaluation, of stage 0 or
    of the last round, so the final rows repeat it."""
    run.stage = "recursion"
    view = trainer.net
    xt, yt, xv, yv, val_true = split
    if val_true is not None:
        def val_metric():
            return _errors(view, xv, val_true)[1]
    else:
        def val_metric():
            return _loss_total(trainer.val_loss(xv, yv))

    def on_iteration(record):
        t = record["iteration"]
        last_epoch = len(record["train_losses"]) - 1
        for epoch, loss in enumerate(record["train_losses"]):
            run.metrics.add("recursion", t, epoch, "train", "loss", loss)
        run.metrics.add("recursion", t, last_epoch, "val", "metric", record["val_metric"])
        if test_ds.true_labels is not None:
            _test_rows(run, view, test_ds, "recursion", t, last_epoch)
            record["test_error" if view.attributes is None else "test_errors"] = run.errors

    if run.cfg.recursion.iterations > 0:
        run.report.iterations = run_recursion(trainer, xt, yt, run.cfg.recursion,
                                              val_metric=val_metric, on_iteration=on_iteration)

    run.stage = "eval"
    if run.errors is not None:
        _test_rows(run, view, None, "final", len(run.report.iterations), 0)
    _save_stage(run, view, trainer.na_models, "final")
    run.report.test_errors["final"] = run.errors


def _save_stage(run, view, models, tag):
    """``snapshot_<tag>.nam`` and the ``q_<tag>_*`` unit exports."""
    save_snapshot(run.out / f"snapshot_{tag}.nam", view, models)
    _export_models(view, models, run.out, f"q_{tag}_")


def _check_snapshot(cfg: ExperimentConfig, view):
    """A resumed snapshot's view must hold the network the config describes."""
    _check_arch(cfg)
    echoes = [("arch", serialize_arch(view.trunk.specs), serialize_arch(cfg.arch_specs)),
              ("input_shape", serialize_input_shape(view.trunk.input_shape),
               serialize_input_shape(cfg.arch_input_shape)),
              ("attributes", serialize_attributes(view.attributes),
               serialize_attributes(cfg.attributes))]
    for key, snapped, configured in echoes:
        if snapped != configured:
            raise ConfigError(f"snapshot {key} {snapped} does not match the config's "
                              f"{configured}")


def resume_recursion(cfg: ExperimentConfig, snapshot_path) -> RunReport:
    """Resume from a stage-0 snapshot and run only the recursion rounds.

    ``recursion.iterations`` must be at least 1, checked before anything
    is read or written. Single- and multi-label snapshots take the path of
    a full run's recursion and eval stages. The snapshot's arch, input
    shape and classes (attributes) must equal what the config and its data
    describe, else ``ConfigError``. The output directory is the config's
    ``out``, as a run's is, and the data, re-derived from the config's
    seeds, is saved there as a run's is, so the test set streams into its
    ``test.nld``. The trainer built over the snapshot's models holds the
    full run's unit arenas, in ``_param_chain`` order, but their velocities
    restart at zero and the shuffle stream at its first draw, which a full
    run spends on pretraining: the rounds see other mini-batches, so the
    result differs from the full run's.
    """
    if cfg.recursion.iterations < 1:
        raise ConfigError("recursion.iterations must be >= 1 to resume")
    with _Run(cfg, cfg.out_dir, "resume") as run:
        validate_paths(cfg)
        view, models = load_snapshot(snapshot_path)
        _check_snapshot(cfg, view)
        run.stage = "data"
        train_ds, test_ds = resolve_data(cfg, run.out)
        split = _split(cfg, view, train_ds, test_ds)
        _finish(run, Trainer(view, cfg.opt, models, seed=cfg.seed), split, test_ds)
    return run.report
