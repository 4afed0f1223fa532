"""Experiment runner: composes data, training, recursion, and exports.

The pipeline is: resolve data (optionally synthesize and inject noise),
pretrain the base network on the noisy labels, grow and train the noise
units until the schedule stops, run the recursive self-distillation
rounds, and evaluate through the base network only. A single-label run
is the one-head case of the same code path: the heads view (``OneHead``
or ``MultiHeadNetwork``) is the model that ``evaluate`` scores, that a
snapshot is written from and read back as; only the snapshot metadata,
the flips.csv header, metric names and report fields differ by kind.
Every artifact is a pure function of (config, seed); wall-clock time is
kept out of metrics.csv so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .attention import Decision, NAModel, schedule_step
from .config import (ExperimentConfig, _parse_attributes, parse_arch, parse_config_text,
                     parse_input_shape, serialize_arch, serialize_input_shape, validate_paths)
from .data import (_Reader, _write, generate_synthetic, generate_synthetic_multi, inject_noise,
                   load_dataset, save_dataset)
from .errors import (ConfigError, FormatError, NoiseAttnError, StageError, in_epoch,
                     out_of_memory)
from .multihead import MultiHeadNetwork, _errors, evaluate_all_metric
from .nn import Dense, Network, check_labels, label_columns, param_count
from .recursion import run_recursion
from .training import OneHead, Trainer, _loss_total, _param_chain, as_heads, split_train_val

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # byte-stable across platforms
            writer.writerow(self.COLUMNS)
            for stage, iteration, epoch, split, metric, value in self.rows:
                writer.writerow([stage, iteration, epoch, split, metric, repr(value)])


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(net, features, true_labels):
    """Test error of a ``Network`` or heads view, through the base network
    only: the top-1 error of a ``OneHead``, or (per-attribute errors, joint
    error) of a ``MultiHeadNetwork``."""
    view = as_heads(net)
    if view.attributes is None:
        return _errors(view, features, true_labels)[1]
    return evaluate_all_metric(view, features, true_labels)


# ---------------------------------------------------------------------------
# Learned-unit exports


def _write_pgm(path, q):
    """P2 ASCII PGM, maxval 255: pixel (j, i) = round(255 * q[j, i])."""
    pixels = np.rint(np.clip(q, 0.0, 1.0) * 255).astype(int)
    lines = ["P2", f"{q.shape[1]} {q.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    Path(path).write_text("\n".join(lines) + "\n")


def _make_out_dir(path) -> Path:
    """Create an output directory; a file in its place is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output path {out} is not a directory") from exc
    return out


def export_q(model: NAModel, out_dir, prefix: str = "q_"):
    """Write one full-precision CSV and one PGM heatmap per unit."""
    out_dir = _make_out_dir(out_dir)
    paths = []
    for m, q in enumerate(model.unit_matrices(), start=1):
        csv_path = out_dir / f"{prefix}unit{m:02d}.csv"
        pgm_path = out_dir / f"{prefix}unit{m:02d}.pgm"
        np.savetxt(csv_path, q, delimiter=",", fmt="%.17g")
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


def _attribute_tokens(attributes):
    """``name:classes,...`` as in the config; None for single-label."""
    if attributes is None:
        return None
    return ",".join(f"{n}:{c}" for n, c in zip(attributes.names, attributes.class_counts))


def _meta_lines(view, models):
    lines = [f"kind = {'single' if view.attributes is None else 'multi'}",
             f"input_shape = {serialize_input_shape(view.trunk.input_shape)}",
             f"arch = {serialize_arch(view.trunk.specs)}"]
    if view.attributes is None:
        lines.append(f"classes = {view.class_counts[0]}")
    else:
        lines.append(f"attributes = {_attribute_tokens(view.attributes)}")
    lines.append("units = " + ";".join(str(m.active_count) for m in models))
    lines.append("decays = " + ";".join(
        ",".join(repr(u.decay) for u in m.units) for m in models))
    return "\n".join(lines)


def save_snapshot(path, net, models):
    """Write a NAM snapshot through ``data._write``: magic "NAM1", u32
    version, u32 metadata length, the metadata lines, u64 parameter count,
    then each parameter as float64 in ``_param_chain`` order. ``net`` is a
    ``Network`` or a heads view with one model per head; the header's kind,
    input shape, arch and classes (or attributes) are read from the view,
    so they describe the parameters written."""
    view = as_heads(net)
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
    flipped indices), one index array per label column. With ``out_dir``,
    write noisy_train.nld and flips.csv there: ``index`` rows for
    single-label data, else ``attribute,index`` rows, one per flip of each
    column."""
    if dataset.k and cfg.attributes is None:
        raise ConfigError("multi-attribute dataset needs an attributes config")
    counts = cfg.attributes.class_counts if dataset.k else [dataset.c]
    noisy, flips = inject_noise(dataset, cfg.noise, counts)
    if out_dir is not None:
        save_dataset(noisy, Path(out_dir) / "noisy_train.nld")
        with open(Path(out_dir) / "flips.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["attribute", "index"] if noisy.k else ["index"])
            for column, idx in enumerate(flips):
                writer.writerows([column, int(i)] if noisy.k else [int(i)] for i in idx)
    return noisy, flips


def resolve_data(cfg: ExperimentConfig, out_dir=None):
    """Produce (train, test) datasets per config; optionally save artifacts.
    Injection corrupts training labels only; test sets keep given = true."""
    if cfg.data.source == "synthetic":
        if cfg.attributes is not None:
            train, test = generate_synthetic_multi(cfg.data.synthetic,
                                                   cfg.attributes.class_counts)
        else:
            train, test = generate_synthetic(cfg.data.synthetic)
        if out_dir is not None:
            save_dataset(train, Path(out_dir) / "train.nld")
            save_dataset(test, Path(out_dir) / "test.nld")
    else:
        train = load_dataset(cfg.data.train_path)
        test = load_dataset(cfg.data.test_path)

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


def _drive(cfg: ExperimentConfig, out: Path, stage, body) -> RunReport:
    """Run ``body(metrics, report)``, flushing metrics.csv even when it
    fails; a failure, running out of memory included, is raised as a
    StageError naming ``stage[0]``."""
    started = time.perf_counter()
    _make_out_dir(out)
    metrics = MetricsLog()
    report = RunReport(config_echo=dict(cfg.echo), seed=cfg.seed,
                       version=__version__, out_dir=str(out))
    try:
        body(metrics, report)
    except (NoiseAttnError, MemoryError) as exc:
        metrics.write(out / "metrics.csv")  # flush partial artifacts before abort
        cause = exc if isinstance(exc, NoiseAttnError) else out_of_memory(exc)
        raise StageError(stage[0], cause) from exc
    metrics.write(out / "metrics.csv")
    report.wall_clock_s = time.perf_counter() - started
    (out / "report.json").write_text(report.to_json())
    return report


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute the full configured pipeline and write all artifacts."""
    out = Path(cfg.out_dir)
    stage = ["setup"]

    def body(metrics, report):
        validate_paths(cfg)
        (out / "config_echo.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in cfg.echo.items()))
        stage[0] = "data"
        train_ds, test_ds = resolve_data(cfg, out)
        _run(cfg, train_ds, test_ds, metrics, out, report, stage)

    return _drive(cfg, out, stage, body)


def _check_arch(cfg: ExperimentConfig):
    if cfg.arch_specs is None or cfg.arch_input_shape is None:
        raise ConfigError("arch.layers and arch.input_shape are required for training")


def _split(cfg, view, train_ds, test_ds):
    """Check both datasets against the heads of ``view``, each label column
    against its own head's class count; returns the fit and validation
    parts as (xt, yt, xv, yv, validation true labels or None)."""
    k = 0 if view.attributes is None else len(view.names)
    for ds in (train_ds, test_ds):
        if ds.k != k:
            raise ConfigError(f"dataset has {ds.k} attribute columns, config declares {k}")
    if k == 0 and view.class_counts != [train_ds.c]:
        raise ConfigError(f"network outputs {view.class_counts[0]} classes, "
                          f"dataset has {train_ds.c}")
    for part, ds in (("train", train_ds), ("test", test_ds)):
        for kind, labels in (("given", ds.given_labels), ("true", ds.true_labels)):
            if labels is None:
                continue
            for name, c, column in zip(view.names, view.class_counts, label_columns(labels)):
                of = f" of attribute {name}" if name else ""
                check_labels(column, c, f"{part} {kind} labels{of}")
    train_idx, val_idx = split_train_val(train_ds.n, cfg.na.val_fraction, cfg.seed)
    val_true = None if train_ds.true_labels is None else train_ds.true_labels[val_idx]
    return (train_ds.features[train_idx], train_ds.given_labels[train_idx],
            train_ds.features[val_idx], train_ds.given_labels[val_idx], val_true)


def _test_rows(metrics, view, test_ds, stage_name, iteration, epoch, errors=None):
    """Test error through the base network, written to metrics: ``error``
    for a single-label run; ``error.<name>`` per attribute and ``error.ALL``
    for a multi-label run, which returns (per-attribute errors, joint error).
    ``errors`` already computed for the same parameters are written as they
    are, not computed again."""
    if errors is None:
        errors = evaluate(view, test_ds.features, test_ds.true_labels)
    if view.attributes is None:
        rows = [("error", errors)]
    else:
        rows = [*zip([f"error.{name}" for name in view.names], errors[0]),
                ("error.ALL", errors[1])]
    for metric, value in rows:
        metrics.add(stage_name, iteration, epoch, "test", metric, value)
    return errors


def _run(cfg, train_ds, test_ds, metrics, out, report, stage):
    stage[0] = "build"
    _check_arch(cfg)
    net = Network(cfg.arch_specs, cfg.arch_input_shape, seed=(cfg.seed, 1))
    view = (OneHead(net) if cfg.attributes is None
            else MultiHeadNetwork(net, cfg.attributes, seed=cfg.seed))
    split = _split(cfg, view, train_ds, test_ds)
    xt, yt, xv, yv, _ = split
    trainer = Trainer(view, cfg.opt, seed=cfg.seed)
    models = trainer.na_models
    suffixes = [f".{name}" if name else "" for name in view.names]

    stage[0] = "pretrain"
    for epoch in range(cfg.na.pretrain_epochs):
        with in_epoch(epoch + 1):
            tr = trainer.train_epoch(xt, yt)
            vl = _loss_total(trainer.val_loss(xv, yv))
        metrics.add("pretrain", 0, epoch, "train", "loss", tr)
        metrics.add("pretrain", 0, epoch, "val", "loss", vl)

    stage[0] = "na"
    histories: list[list[float]] = [[] for _ in models]
    stopped = [False] * len(models)
    na_epochs = 0
    for epoch in range(cfg.na.stage_epochs):
        with in_epoch(epoch + 1):
            tr = trainer.train_epoch(xt, yt)
            per_attr = trainer.val_loss(xv, yv)
        na_epochs = epoch + 1
        metrics.add("na", 0, epoch, "train", "loss", tr)
        for k, (suffix, vl) in enumerate(zip(suffixes, per_attr)):
            metrics.add("na", 0, epoch, "val", "loss" + suffix, vl)
            if stopped[k]:
                continue
            histories[k].append(vl)
            decision = schedule_step(histories[k], cfg.na, models[k])
            if decision is Decision.ADD_UNIT:
                trainer.add_unit(cfg.na, k)
                histories[k].clear()
                metrics.add("na", 0, epoch, "model", "active_units" + suffix,
                            models[k].active_count)
            elif decision is Decision.STOP:
                stopped[k] = True
        if all(stopped):
            break

    stage0 = _save_stage(view, models, test_ds, metrics, out, "stage0",
                         ("na", 0, max(na_epochs - 1, 0)))
    if view.attributes is None:
        report.stage0 = {"pretrain_epochs": cfg.na.pretrain_epochs, "na_epochs": na_epochs,
                         "active_units": models[0].active_count, "test_error": stage0}
        report.test_errors["stage0"] = stage0
    else:
        report.stage0 = {"na_epochs": na_epochs,
                         "active_units": [m.active_count for m in models],
                         "test_errors": stage0}

    _finish(cfg, trainer, split, test_ds, metrics, out, report, stage, stage0)


def _finish(cfg, trainer, split, test_ds, metrics, out, report, stage, errors=None):
    """The recursion rounds, if any, then the final test rows and save of
    the model on ``trainer``. ``errors`` are its test errors; each round
    replaces them with its own, so the final rows evaluate nothing again."""
    stage[0] = "recursion"
    records = []
    if cfg.recursion.iterations > 0:
        records, errors = _recursion(cfg, trainer, split, test_ds, metrics)
    report.iterations = records

    stage[0] = "eval"
    report.test_errors["final"] = _save_stage(trainer.net, trainer.na_models, test_ds, metrics,
                                              out, "final", ("final", len(records), 0), errors)


def _recursion(cfg, trainer, split, test_ds, metrics):
    """The rounds' records, and the test errors of the last round (None
    when the test set has no true labels)."""
    view = trainer.net
    xt, yt, xv, yv, val_true = split
    if val_true is not None:
        def val_metric():
            return _errors(view, xv, val_true)[1]
    else:
        def val_metric():
            return _loss_total(trainer.val_loss(xv, yv))

    last_errors = None

    def on_iteration(record):
        nonlocal last_errors
        t = record["iteration"]
        last_epoch = len(record["train_losses"]) - 1
        for epoch, loss in enumerate(record["train_losses"]):
            metrics.add("recursion", t, epoch, "train", "loss", loss)
        metrics.add("recursion", t, last_epoch, "val", "metric", record["val_metric"])
        if test_ds.true_labels is not None:
            key = "test_error" if view.attributes is None else "test_errors"
            record[key] = last_errors = _test_rows(metrics, view, test_ds, "recursion", t,
                                                   last_epoch)

    records = run_recursion(trainer, xt, yt, cfg.recursion, val_metric=val_metric,
                            on_iteration=on_iteration)
    return records, last_errors


def _save_stage(view, models, test_ds, metrics, out, tag, row, errors=None):
    """Test error rows at ``row`` = (stage, iteration, epoch) when the test
    set has true labels, then ``snapshot_<tag>.nam`` and the ``q_<tag>_*``
    unit exports; returns the test errors or None. ``errors`` already
    computed for these parameters are reused."""
    if test_ds.true_labels is not None:
        errors = _test_rows(metrics, view, test_ds, *row, errors)
    save_snapshot(out / f"snapshot_{tag}.nam", view, models)
    _export_models(view, models, out, f"q_{tag}_")
    return errors


def _check_snapshot(cfg: ExperimentConfig, view):
    """A resumed snapshot's view must hold the network the config describes."""
    _check_arch(cfg)
    echoes = [("arch", serialize_arch(view.trunk.specs), serialize_arch(cfg.arch_specs)),
              ("input_shape", serialize_input_shape(view.trunk.input_shape),
               serialize_input_shape(cfg.arch_input_shape)),
              ("attributes", _attribute_tokens(view.attributes),
               _attribute_tokens(cfg.attributes))]
    for key, snapped, configured in echoes:
        if snapped != configured:
            raise ConfigError(f"snapshot {key} {snapped} does not match the config's "
                              f"{configured}")


def resume_recursion(cfg: ExperimentConfig, snapshot_path, out_dir=None) -> RunReport:
    """Resume from a stage-0 snapshot and run only the recursion rounds.

    ``recursion.iterations`` must be at least 1, checked before anything
    is read or written. Single- and multi-label snapshots take the path of
    a full run's recursion and eval stages. The snapshot's arch, input
    shape and classes (attributes) must equal what the config and its data
    describe, else ``ConfigError``; data is re-derived from the config's
    seeds. The trainer built over the snapshot's models holds the full
    run's unit arenas, in ``_param_chain`` order, but their velocities
    restart at zero and the shuffle stream at its first draw, which a full
    run spends on pretraining: the rounds see other mini-batches, so the
    result differs from the full run's.
    """
    if cfg.recursion.iterations < 1:
        raise ConfigError("recursion.iterations must be >= 1 to resume")
    out = Path(out_dir or cfg.out_dir)
    stage = ["resume"]

    def body(metrics, report):
        validate_paths(cfg)
        view, models = load_snapshot(snapshot_path)
        _check_snapshot(cfg, view)
        stage[0] = "data"
        train_ds, test_ds = resolve_data(cfg, None)
        split = _split(cfg, view, train_ds, test_ds)

        trainer = Trainer(view, cfg.opt, models, seed=cfg.seed)
        _finish(cfg, trainer, split, test_ds, metrics, out, report, stage)

    return _drive(cfg, out, stage, body)
