"""Experiment runner: composes data, training, recursion, and exports.

The pipeline is: resolve data (optionally synthesize and inject noise),
pretrain the base network on the noisy labels, grow and train the noise
units until the schedule stops, run the recursive self-distillation
rounds, and evaluate through the base network only. A single-label run
is the one-head case of the same code path: the network view (``OneHead``
or ``MultiHeadNetwork``) gives head names and class counts, and only the
snapshot metadata, the flips.csv header, metric names and report fields
differ by kind. Every artifact is a
pure function of (config, seed); wall-clock time is kept out of
metrics.csv so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attention import Decision, NAModel, schedule_step
from .config import (ExperimentConfig, _parse_attributes, load_noise_matrix, parse_arch,
                     parse_input_shape, serialize_arch, serialize_input_shape, validate_paths)
from .data import (NoiseSpec, _Reader, generate_synthetic, generate_synthetic_multi,
                   inject_noise_multi, load_dataset, save_dataset)
from .errors import ConfigError, DataError, FormatError, NoiseAttnError, StageError
from .multihead import MultiHeadNetwork, _errors, evaluate_all_metric
from .nn import Network, label_columns
from .recursion import run_recursion
from .training import OneHead, Trainer, _loss_total, as_heads, split_train_val

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


def evaluate(net: Network, features, true_labels) -> float:
    """Top-1 error rate against true labels, through the base network only."""
    return _errors(OneHead(net), features, true_labels)[1]


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


def _meta_lines(input_shape, arch_specs, models, attributes):
    lines = [f"kind = {'single' if attributes is None else 'multi'}",
             f"input_shape = {serialize_input_shape(input_shape)}",
             f"arch = {serialize_arch(arch_specs)}"]
    if attributes is None:
        lines.append(f"classes = {models[0].n_classes}")
    else:
        lines.append(f"attributes = {_attribute_tokens(attributes)}")
    lines.append("units = " + ";".join(str(m.active_count) for m in models))
    lines.append("decays = " + ";".join(
        ",".join(repr(u.decay) for u in m.units) for m in models))
    return "\n".join(lines)


def _param_chain(net_params, models):
    params = list(net_params)
    for model in models:
        params.extend(u.q for u in model.units)
    return params


def save_snapshot(path, net, models, *, input_shape, arch_specs, attributes=None):
    """Flat float64 parameter dump behind an architecture echo header.

    ``net`` is a ``Network`` (or its ``OneHead`` view) with one model
    (single-label) or a ``MultiHeadNetwork`` with one model per attribute
    of ``attributes``.
    """
    meta = _meta_lines(input_shape, arch_specs, models, attributes).encode()
    chain = _param_chain(net.parameters(), models)
    vec = (np.concatenate([p.data.ravel() for p in chain])
           if chain else np.zeros(0))
    blob = bytearray()
    blob += SNAPSHOT_MAGIC
    blob += struct.pack("<II", SNAPSHOT_VERSION, len(meta))
    blob += meta
    blob += struct.pack("<Q", vec.size)
    blob += np.ascontiguousarray(vec, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def _parse_meta(meta_text):
    meta = {}
    for line in meta_text.splitlines():
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    return meta


def load_snapshot(path):
    """Rebuild the network and noise models; validates the metadata (one
    unit and one decay group per attribute, 1 for single-label) and the
    parameter count against the architecture echo."""
    reader = _Reader(path, "snapshot")
    if reader.take(4, "magic") != SNAPSHOT_MAGIC:
        raise FormatError(f"bad snapshot magic at offset 0 in {path}")
    version, meta_len = struct.unpack("<II", reader.take(8, "header"))
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    try:
        meta = _parse_meta(reader.take(meta_len, "architecture echo").decode())
    except UnicodeDecodeError as exc:
        raise FormatError(f"snapshot architecture echo at offset 12 is not UTF-8: {exc}") from exc
    (n_params,) = struct.unpack("<Q", reader.take(8, "parameter count"))
    vec = np.frombuffer(reader.take(n_params * 8, "parameters"), dtype="<f8").astype(np.float64)
    reader.done()

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
    class_counts = ([field("classes", int)] if attributes is None
                    else attributes.class_counts)
    if not len(unit_counts) == len(decay_groups) == len(class_counts):
        raise FormatError(f"snapshot metadata holds {len(unit_counts)} unit and "
                          f"{len(decay_groups)} decay groups for {len(class_counts)} "
                          f"attribute(s)")

    net = Network(arch_specs, input_shape, seed=0)
    if attributes is not None:
        net = MultiHeadNetwork(net, attributes, seed=0)
    elif net.out_dim != class_counts[0]:
        raise FormatError(f"snapshot network outputs {net.out_dim} classes, "
                          f"metadata declares {class_counts[0]}")
    models = [_rebuild_model(c, units, decays)
              for c, units, decays in zip(class_counts, unit_counts, decay_groups)]

    chain = _param_chain(net.parameters(), models)
    expected = sum(p.size for p in chain)
    if vec.size != expected:
        raise FormatError(f"snapshot holds {vec.size} parameters, architecture echo "
                          f"needs {expected}")
    pos = 0
    for p in chain:
        p.data[...] = vec[pos:pos + p.size].reshape(p.data.shape)
        pos += p.size
    return {"kind": kind, "net": net, "models": models, "attributes": attributes,
            "input_shape": input_shape, "arch_specs": arch_specs}


def _rebuild_model(n_classes, unit_count, decays):
    model = NAModel(n_classes)
    if len(decays) != unit_count:
        raise FormatError("unit/decay counts disagree in snapshot metadata")
    for decay in decays[1:]:
        model.add_unit(decay=decay)
    return model


# ---------------------------------------------------------------------------
# Data resolution


def _noise_specs(cfg: ExperimentConfig, k: int):
    """One NoiseSpec per label column (k = 0 means one single-label spec)."""
    noise = cfg.noise
    count = max(k, 1)
    rhos = noise.rho
    if len(rhos) == 1:
        rhos = rhos * count
    if len(rhos) != count:
        raise ConfigError(f"noise.rho needs 1 or {count} values, got {len(rhos)}")
    matrix = load_noise_matrix(noise.matrix_path) if noise.mode == "matrix" else None
    specs = []
    for i in range(count):
        specs.append(NoiseSpec(
            rho=rhos[i], mode=noise.mode, matrix=matrix,
            per_class=noise.per_class,
            seed=(noise.seed, i) if isinstance(noise.seed, int) else tuple(noise.seed) + (i,)))
    return specs


def _inject(cfg: ExperimentConfig, dataset):
    """Corrupt the given labels per ``cfg.noise``; returns (noisy dataset,
    flipped indices), one index array per label column."""
    if dataset.k and cfg.attributes is None:
        raise ConfigError("multi-attribute dataset needs an attributes config")
    counts = cfg.attributes.class_counts if dataset.k else [dataset.c]
    return inject_noise_multi(dataset, _noise_specs(cfg, dataset.k), counts)


def resolve_data(cfg: ExperimentConfig, out_dir=None):
    """Produce (train, test) datasets per config; optionally save artifacts.

    Injection corrupts training labels only; test sets keep given = true.
    Returns (train, test, flips) where flips holds one index array per
    label column, or is None when no noise was injected.
    """
    if cfg.data.source == "synthetic":
        if cfg.attributes is not None:
            syn = cfg.data.synthetic
            train, test = generate_synthetic_multi(
                cfg.attributes.class_counts, syn.dim, syn.sigma, syn.separation,
                syn.n_train, syn.n_test, syn.seed)
        else:
            train, test = generate_synthetic(cfg.data.synthetic)
        if out_dir is not None:
            save_dataset(train, Path(out_dir) / "train.nld")
            save_dataset(test, Path(out_dir) / "test.nld")
    else:
        if not cfg.data.train_path or not cfg.data.test_path:
            raise ConfigError("data.source = nld needs data.train_path and data.test_path")
        train = load_dataset(cfg.data.train_path)
        test = load_dataset(cfg.data.test_path)

    flips = None
    if cfg.noise.mode != "none":
        train, flips = _inject(cfg, train)
        if out_dir is not None:
            save_dataset(train, Path(out_dir) / "noisy_train.nld")
            _write_flips(Path(out_dir) / "flips.csv", train.k, flips)
    return train, test, flips


def _write_flips(path, k, flips):
    """``index`` rows for single-label data (``k`` = 0), else ``attribute,index``
    rows, one per flip of each of the ``k`` columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attribute", "index"] if k else ["index"])
        for column, idx in enumerate(flips):
            writer.writerows([column, int(i)] if k else [int(i)] for i in idx)


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
    fails; a failure is raised as a StageError naming ``stage[0]``."""
    started = time.perf_counter()
    _make_out_dir(out)
    metrics = MetricsLog()
    report = RunReport(config_echo=dict(cfg.echo), seed=cfg.seed,
                       version=__version__, out_dir=str(out))
    try:
        body(metrics, report)
    except NoiseAttnError as exc:
        metrics.write(out / "metrics.csv")  # flush partial artifacts before abort
        raise StageError(stage[0], exc) from exc
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
        train_ds, test_ds, _ = resolve_data(cfg, out)
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
                if column.max(initial=0) >= c:
                    of = f" of attribute {name}" if name else ""
                    raise DataError(f"{part} {kind} labels{of} must lie in [0, {c}), "
                                    f"got {column.max()}")
    train_idx, val_idx = split_train_val(train_ds.n, cfg.na.val_fraction, cfg.seed)
    val_true = None if train_ds.true_labels is None else train_ds.true_labels[val_idx]
    return (train_ds.features[train_idx], train_ds.given_labels[train_idx],
            train_ds.features[val_idx], train_ds.given_labels[val_idx], val_true)


def _test_rows(metrics, view, test_ds, stage_name, iteration, epoch):
    """Test error through the base network, written to metrics: ``error``
    for a single-label run; ``error.<name>`` per attribute and ``error.ALL``
    for a multi-label run, which returns (per-attribute errors, joint error)."""
    if view.attributes is None:
        errors = evaluate(view.base, test_ds.features, test_ds.true_labels)
        rows = [("error", errors)]
    else:
        errors = evaluate_all_metric(view, test_ds.features, test_ds.true_labels)
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
    models = [NAModel(c) for c in view.class_counts]
    suffixes = [f".{name}" if name else "" for name in view.names]
    trainer = Trainer(view, cfg.opt, models, seed=cfg.seed)

    stage[0] = "pretrain"
    for epoch in range(cfg.na.pretrain_epochs):
        tr = trainer.train_epoch(xt, yt, use_na=False)
        vl = _loss_total(trainer.val_loss(xv, yv, use_na=False))
        metrics.add("pretrain", 0, epoch, "train", "loss", tr)
        metrics.add("pretrain", 0, epoch, "val", "loss", vl)

    stage[0] = "na"
    histories: list[list[float]] = [[] for _ in models]
    stopped = [False] * len(models)
    na_epochs = 0
    for epoch in range(cfg.na.stage_epochs):
        tr = trainer.train_epoch(xt, yt, use_na=True)
        per_attr = trainer.val_loss(xv, yv, use_na=True)
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

    stage0 = _save_stage(cfg, view, models, test_ds, metrics, out, "stage0",
                         ("na", 0, max(na_epochs - 1, 0)))
    if view.attributes is None:
        report.stage0 = {"pretrain_epochs": cfg.na.pretrain_epochs, "na_epochs": na_epochs,
                         "active_units": models[0].active_count, "test_error": stage0}
        report.test_errors["stage0"] = stage0
    else:
        report.stage0 = {"na_epochs": na_epochs,
                         "active_units": [m.active_count for m in models],
                         "test_errors": stage0}

    stage[0] = "recursion"
    records = []
    if cfg.recursion.iterations > 0:
        records = _recursion(cfg, trainer, view, split, test_ds, metrics)
    report.iterations = records

    stage[0] = "eval"
    report.test_errors["final"] = _save_stage(cfg, view, models, test_ds, metrics, out, "final",
                                              ("final", len(records), 0))


def _recursion(cfg, trainer, view, split, test_ds, metrics):
    xt, yt, xv, yv, val_true = split
    schedule = cfg.recursion
    if schedule.epochs is None:  # rounds as long as the NA stage
        schedule = replace(schedule, epochs=cfg.na.stage_epochs)

    if val_true is not None:
        def val_metric():
            return _errors(view, xv, val_true)[1]
    else:
        def val_metric():
            return _loss_total(trainer.val_loss(xv, yv, use_na=True))

    def on_iteration(record):
        t = record["iteration"]
        last_epoch = len(record["train_losses"]) - 1
        for epoch, loss in enumerate(record["train_losses"]):
            metrics.add("recursion", t, epoch, "train", "loss", loss)
        metrics.add("recursion", t, last_epoch, "val", "metric", record["val_metric"])
        if test_ds.true_labels is not None:
            key = "test_error" if view.attributes is None else "test_errors"
            record[key] = _test_rows(metrics, view, test_ds, "recursion", t, last_epoch)

    return run_recursion(trainer, xt, yt, schedule, val_metric=val_metric,
                         on_iteration=on_iteration)


def _save_stage(cfg, view, models, test_ds, metrics, out, tag, row):
    """Test error rows at ``row`` = (stage, iteration, epoch) when the test
    set has true labels, then ``snapshot_<tag>.nam`` and the ``q_<tag>_*``
    unit exports; returns the test errors or None."""
    errors = None
    if test_ds.true_labels is not None:
        errors = _test_rows(metrics, view, test_ds, *row)
    save_snapshot(out / f"snapshot_{tag}.nam", view, models, input_shape=cfg.arch_input_shape,
                  arch_specs=cfg.arch_specs, attributes=view.attributes)
    _export_models(view, models, out, f"q_{tag}_")
    return errors


def _check_snapshot(cfg: ExperimentConfig, snap):
    """A resumed snapshot must hold the network the config describes."""
    _check_arch(cfg)
    echoes = [("arch", serialize_arch(snap["arch_specs"]), serialize_arch(cfg.arch_specs)),
              ("input_shape", serialize_input_shape(snap["input_shape"]),
               serialize_input_shape(cfg.arch_input_shape)),
              ("attributes", _attribute_tokens(snap["attributes"]),
               _attribute_tokens(cfg.attributes))]
    for key, snapped, configured in echoes:
        if snapped != configured:
            raise ConfigError(f"snapshot {key} {snapped} does not match the config's "
                              f"{configured}")


def resume_recursion(cfg: ExperimentConfig, snapshot_path, out_dir=None) -> RunReport:
    """Resume from a stage-0 snapshot and run only the recursion rounds.

    ``recursion.iterations`` must be at least 1; that is checked before
    anything is read or written. Single- and multi-label snapshots take
    the same path as a full run's recursion and eval stages. The
    snapshot's arch, input shape and classes (attributes for multi-label)
    must equal what the config and its data describe, else
    ``ConfigError``. Data is re-derived from the
    config (generation and injection are pure functions of the seeds).
    Optimizer velocities restart at zero.
    """
    if cfg.recursion.iterations < 1:
        raise ConfigError("recursion.iterations must be >= 1 to resume")
    out = Path(out_dir or cfg.out_dir)
    stage = ["resume"]

    def body(metrics, report):
        validate_paths(cfg)
        snap = load_snapshot(snapshot_path)
        _check_snapshot(cfg, snap)
        view, models = as_heads(snap["net"]), snap["models"]
        stage[0] = "data"
        train_ds, test_ds, _ = resolve_data(cfg, None)
        split = _split(cfg, view, train_ds, test_ds)

        stage[0] = "recursion"
        trainer = Trainer(view, cfg.opt, models, seed=cfg.seed)
        report.iterations = _recursion(cfg, trainer, view, split, test_ds, metrics)
        stage[0] = "eval"
        report.test_errors["final"] = _save_stage(cfg, view, models, test_ds, metrics, out,
                                                  "final", ("final", len(report.iterations), 0))

    return _drive(cfg, out, stage, body)
