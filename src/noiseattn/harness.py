"""Experiment runner: composes data, training, recursion, and exports.

The pipeline is: resolve data (optionally synthesize and inject noise),
pretrain the base network on the noisy labels, grow and train the noise
units until the schedule stops, run the recursive self-distillation
rounds, and evaluate through the base network only. Every artifact is a
pure function of (config, seed); wall-clock time is kept out of
metrics.csv so reruns are byte-identical.
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
from .attention import Decision, NAModel, UnitSchedule, infer, schedule_step
from .config import (ExperimentConfig, load_noise_matrix, parse_arch, parse_input_shape,
                     serialize_arch, serialize_input_shape, validate_paths)
from .data import (Dataset, NoiseSpec, generate_synthetic, generate_synthetic_multi,
                   inject_noise, inject_noise_multi, load_dataset, save_dataset)
from .errors import ConfigError, DataError, FormatError, NoiseAttnError, StageError
from .multihead import AttributeSpec, MultiHeadNetwork, MultiTrainer, evaluate_all_metric
from .nn import Network
from .recursion import StoppingRule, run_recursion, run_recursion_multi
from .training import Trainer, split_train_val

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


def predict_probs(net: Network, features, chunk_size: int = 4096):
    """Base-network probabilities over a whole set, evaluated in chunks."""
    return np.concatenate([infer(net, features[start:start + chunk_size])
                           for start in range(0, features.shape[0], chunk_size)])


def evaluate(net: Network, features, true_labels) -> float:
    """Top-1 error rate against true labels, through the base network only."""
    if true_labels is None:
        raise DataError("evaluation needs true labels")
    preds = predict_probs(net, features).argmax(axis=1)
    return float(np.mean(preds != np.asarray(true_labels)))


# ---------------------------------------------------------------------------
# Learned-unit exports


def _write_pgm(path, q):
    """P2 ASCII PGM, maxval 255: pixel (j, i) = round(255 * q[j, i])."""
    pixels = np.rint(np.clip(q, 0.0, 1.0) * 255).astype(int)
    lines = ["P2", f"{q.shape[1]} {q.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    Path(path).write_text("\n".join(lines) + "\n")


def export_q(model: NAModel, out_dir, prefix: str = "q_"):
    """Write one full-precision CSV and one PGM heatmap per unit."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for m, q in enumerate(model.unit_matrices(), start=1):
        csv_path = out_dir / f"{prefix}unit{m:02d}.csv"
        pgm_path = out_dir / f"{prefix}unit{m:02d}.pgm"
        np.savetxt(csv_path, q, delimiter=",", fmt="%.17g")
        _write_pgm(pgm_path, q)
        paths.append((csv_path, pgm_path))
    return paths


def load_q_csv(path) -> np.ndarray:
    """Read a unit CSV back; %.17g output makes this bit-exact."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64))


# ---------------------------------------------------------------------------
# Model snapshots


def _meta_lines(kind, input_shape, arch_specs, models, attributes):
    lines = [f"kind = {kind}",
             f"input_shape = {serialize_input_shape(input_shape)}",
             f"arch = {serialize_arch(arch_specs)}"]
    if kind == "single":
        lines.append(f"classes = {models[0].n_classes}")
    else:
        tokens = ",".join(f"{n}:{c}" for n, c in zip(attributes.names, attributes.class_counts))
        lines.append(f"attributes = {tokens}")
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
    """Flat float64 parameter dump behind an architecture echo header."""
    kind = "single" if attributes is None else "multi"
    meta = _meta_lines(kind, input_shape, arch_specs, models, attributes).encode()
    net_params = net.parameters() if kind == "single" else net.parameters()
    chain = _param_chain(net_params, models)
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
    """Rebuild the network and noise models; validates the parameter count
    against the architecture echo."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise FormatError(f"no such snapshot file: {path}") from exc
    offset = 0

    def take(count, what):
        nonlocal offset
        if offset + count > len(raw):
            raise FormatError(f"truncated snapshot: needed {count} bytes for {what} "
                              f"at offset {offset}")
        chunk = raw[offset:offset + count]
        offset += count
        return chunk

    if take(4, "magic") != SNAPSHOT_MAGIC:
        raise FormatError(f"bad snapshot magic at offset 0 in {path}")
    version, meta_len = struct.unpack("<II", take(8, "header"))
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    meta = _parse_meta(take(meta_len, "architecture echo").decode())
    (n_params,) = struct.unpack("<Q", take(8, "parameter count"))
    vec = np.frombuffer(take(n_params * 8, "parameters"), dtype="<f8").astype(np.float64)
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} unexpected trailing bytes at offset {offset}")

    def field(key, parse=str):
        if key not in meta:
            raise FormatError(f"snapshot metadata lacks the {key!r} key")
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise FormatError(f"bad snapshot metadata {key} = {meta[key]!r}: {exc}") from exc

    kind = field("kind")
    arch_specs = field("arch", parse_arch)
    input_shape = field("input_shape", parse_input_shape)
    unit_counts = field("units", lambda v: [int(u) for u in v.split(";")])
    decay_groups = field("decays", lambda v: [[float(d) for d in group.split(",")]
                                              for group in v.split(";")])

    if kind == "single":
        net = Network(arch_specs, input_shape, seed=0)
        models = [_rebuild_model(field("classes", int), unit_counts[0], decay_groups[0])]
        attributes = None
    elif kind == "multi":
        from .config import _parse_attributes
        attributes = field("attributes", _parse_attributes)
        trunk = Network(arch_specs, input_shape, seed=0)
        net = MultiHeadNetwork(trunk, attributes, seed=0)
        models = [_rebuild_model(c_k, unit_counts[k], decay_groups[k])
                  for k, c_k in enumerate(attributes.class_counts)]
    else:
        raise FormatError(f"unknown snapshot kind {kind!r}")

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


def resolve_data(cfg: ExperimentConfig, out_dir=None):
    """Produce (train, test) datasets per config; optionally save artifacts.

    Injection corrupts training labels only; test sets keep given = true.
    Returns (train, test, flip_record) where flip_record is None when no
    noise was injected.
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
        if cfg.attributes is not None:
            specs = _noise_specs(cfg, cfg.attributes.k)
            train, flip_lists = inject_noise_multi(train, specs, cfg.attributes.class_counts)
            flips = flip_lists
        else:
            (spec,) = _noise_specs(cfg, 0)
            train, flip_idx = inject_noise(train, spec)
            flips = flip_idx
        if out_dir is not None:
            save_dataset(train, Path(out_dir) / "noisy_train.nld")
            _write_flips(Path(out_dir) / "flips.csv", flips)
    return train, test, flips


def _write_flips(path, flips):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(flips, list):  # multi-attribute: one column pair per attribute
            writer.writerow(["attribute", "index"])
            for k, idx in enumerate(flips):
                for i in idx:
                    writer.writerow([k, int(i)])
        else:
            writer.writerow(["index"])
            for i in flips:
                writer.writerow([int(i)])


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


def _unit_schedule(cfg: ExperimentConfig) -> UnitSchedule:
    na = cfg.na
    return UnitSchedule(pretrain_epochs=na.pretrain_epochs, patience=na.patience,
                        improvement_threshold=na.improvement_threshold,
                        decay_base=na.decay_base, decay_growth=na.decay_growth,
                        max_units=na.max_units, init_jitter=na.init_jitter)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute the full configured pipeline and write all artifacts."""
    started = time.perf_counter()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = MetricsLog()
    report = RunReport(config_echo=dict(cfg.echo), seed=cfg.seed,
                       version=__version__, out_dir=str(out))
    stage = ["setup"]
    try:
        validate_paths(cfg)
        (out / "config_echo.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in cfg.echo.items()))
        stage[0] = "data"
        train_ds, test_ds, _ = resolve_data(cfg, out)
        if cfg.attributes is None:
            _run_single(cfg, train_ds, test_ds, metrics, out, report, stage)
        else:
            _run_multi(cfg, train_ds, test_ds, metrics, out, report, stage)
    except NoiseAttnError as exc:
        metrics.write(out / "metrics.csv")  # flush partial artifacts before abort
        raise StageError(stage[0], exc) from exc
    metrics.write(out / "metrics.csv")
    report.wall_clock_s = time.perf_counter() - started
    (out / "report.json").write_text(report.to_json())
    return report


def _check_arch(cfg: ExperimentConfig):
    if cfg.arch_specs is None or cfg.arch_input_shape is None:
        raise ConfigError("arch.layers and arch.input_shape are required for training")


def _run_single(cfg, train_ds, test_ds, metrics, out, report, stage):
    stage[0] = "build"
    _check_arch(cfg)
    if train_ds.k != 0:
        raise ConfigError("config has no attributes but the dataset is multi-attribute")
    c = train_ds.c
    train_idx, val_idx = split_train_val(train_ds.n, cfg.na.val_fraction, cfg.seed)
    xt, yt = train_ds.features[train_idx], train_ds.given_labels[train_idx]
    xv, yv = train_ds.features[val_idx], train_ds.given_labels[val_idx]

    net = Network(cfg.arch_specs, cfg.arch_input_shape, seed=(cfg.seed, 1))
    if net.out_dim != c:
        raise ConfigError(f"network outputs {net.out_dim} classes, dataset has {c}")
    model = NAModel(c)
    schedule = _unit_schedule(cfg)
    trainer = Trainer(net, cfg.opt, model, seed=cfg.seed)

    stage[0] = "pretrain"
    pre_losses = []
    for epoch in range(cfg.na.pretrain_epochs):
        tr = trainer.train_epoch(xt, yt, use_na=False)
        vl = trainer.val_loss(xv, yv, use_na=False)
        pre_losses.append(tr)
        metrics.add("pretrain", 0, epoch, "train", "loss", tr)
        metrics.add("pretrain", 0, epoch, "val", "loss", vl)

    stage[0] = "na"
    history: list[float] = []
    na_epochs = 0
    for epoch in range(cfg.na.stage_epochs):
        tr = trainer.train_epoch(xt, yt, use_na=True)
        vl = trainer.val_loss(xv, yv, use_na=True)
        na_epochs = epoch + 1
        history.append(vl)
        metrics.add("na", 0, epoch, "train", "loss", tr)
        metrics.add("na", 0, epoch, "val", "loss", vl)
        decision = schedule_step(history, schedule, model)
        if decision is Decision.ADD_UNIT:
            trainer.add_unit(schedule)
            history.clear()
            metrics.add("na", 0, epoch, "model", "active_units", model.active_count)
        elif decision is Decision.STOP:
            break

    stage0_error = None
    if test_ds.true_labels is not None:
        stage0_error = evaluate(net, test_ds.features, test_ds.true_labels)
        metrics.add("na", 0, max(na_epochs - 1, 0), "test", "error", stage0_error)
    save_snapshot(out / "snapshot_stage0.nam", net, [model],
                  input_shape=cfg.arch_input_shape, arch_specs=cfg.arch_specs)
    export_q(model, out, prefix="q_stage0_")
    report.stage0 = {"pretrain_epochs": cfg.na.pretrain_epochs,
                     "na_epochs": na_epochs, "active_units": model.active_count,
                     "test_error": stage0_error}
    report.test_errors["stage0"] = stage0_error

    stage[0] = "recursion"
    records = []
    if cfg.recursion.iterations > 0:
        records = _recursion_single(cfg, trainer, net, model, train_ds, test_ds,
                                    xt, yt, xv, yv, val_idx, train_idx, metrics)
    report.iterations = records

    stage[0] = "eval"
    final_error = None
    if test_ds.true_labels is not None:
        final_error = evaluate(net, test_ds.features, test_ds.true_labels)
        metrics.add("final", len(records), 0, "test", "error", final_error)
    save_snapshot(out / "snapshot_final.nam", net, [model],
                  input_shape=cfg.arch_input_shape, arch_specs=cfg.arch_specs)
    export_q(model, out, prefix="q_final_")
    report.test_errors["final"] = final_error


def _recursion_single(cfg, trainer, net, model, train_ds, test_ds,
                      xt, yt, xv, yv, val_idx, train_idx, metrics):
    stopping = StoppingRule(cfg.recursion.min_improvement, cfg.recursion.iterations)
    rec_epochs = cfg.recursion.epochs or cfg.na.stage_epochs

    if train_ds.true_labels is not None:
        val_true = train_ds.true_labels[val_idx]

        def val_metric():
            return evaluate(net, xv, val_true)
    else:
        def val_metric():
            return trainer.val_loss(xv, yv, use_na=True)

    def on_iteration(record):
        t = record["iteration"]
        for epoch, loss in enumerate(record["train_losses"]):
            metrics.add("recursion", t, epoch, "train", "loss", loss)
        metrics.add("recursion", t, len(record["train_losses"]) - 1,
                    "val", "metric", record["val_metric"])
        if test_ds.true_labels is not None:
            err = evaluate(net, test_ds.features, test_ds.true_labels)
            record["test_error"] = err
            metrics.add("recursion", t, len(record["train_losses"]) - 1,
                        "test", "error", err)

    return run_recursion(trainer, xt, yt, alpha_base=cfg.recursion.alpha_base,
                         epochs_per_iteration=rec_epochs, stopping=stopping,
                         val_metric=val_metric, on_iteration=on_iteration)


def _run_multi(cfg, train_ds, test_ds, metrics, out, report, stage):
    stage[0] = "build"
    _check_arch(cfg)
    attrs = cfg.attributes
    if train_ds.k != attrs.k:
        raise ConfigError(f"dataset has {train_ds.k} attribute columns, config declares {attrs.k}")
    train_idx, val_idx = split_train_val(train_ds.n, cfg.na.val_fraction, cfg.seed)
    xt, yt = train_ds.features[train_idx], train_ds.given_labels[train_idx]
    xv, yv = train_ds.features[val_idx], train_ds.given_labels[val_idx]

    trunk = Network(cfg.arch_specs, cfg.arch_input_shape, seed=(cfg.seed, 1))
    mh = MultiHeadNetwork(trunk, attrs, seed=cfg.seed)
    schedule = _unit_schedule(cfg)
    trainer = MultiTrainer(mh, cfg.opt, seed=cfg.seed)
    models = trainer.na_models

    stage[0] = "pretrain"
    for epoch in range(cfg.na.pretrain_epochs):
        tr = trainer.train_epoch(xt, yt, use_na=False)
        vl = trainer.val_loss(xv, yv, use_na=False)
        metrics.add("pretrain", 0, epoch, "train", "loss", tr)
        metrics.add("pretrain", 0, epoch, "val", "loss", vl)

    stage[0] = "na"
    histories: list[list[float]] = [[] for _ in range(attrs.k)]
    stopped = [False] * attrs.k
    na_epochs = 0
    for epoch in range(cfg.na.stage_epochs):
        tr = trainer.train_epoch(xt, yt, use_na=True)
        per_attr = trainer.val_loss_per_attr(xv, yv, use_na=True)
        na_epochs = epoch + 1
        metrics.add("na", 0, epoch, "train", "loss", tr)
        for k, (name, vl) in enumerate(zip(attrs.names, per_attr)):
            metrics.add("na", 0, epoch, "val", f"loss.{name}", vl)
            if stopped[k]:
                continue
            histories[k].append(vl)
            decision = schedule_step(histories[k], schedule, models[k])
            if decision is Decision.ADD_UNIT:
                trainer.add_unit(k, schedule)
                histories[k].clear()
                metrics.add("na", 0, epoch, "model", f"active_units.{name}",
                            models[k].active_count)
            elif decision is Decision.STOP:
                stopped[k] = True
        if all(stopped):
            break

    stage0_errors = None
    if test_ds.true_labels is not None:
        stage0_errors = _multi_test_rows(metrics, attrs, mh, test_ds,
                                         "na", 0, max(na_epochs - 1, 0))
    save_snapshot(out / "snapshot_stage0.nam", mh, models,
                  input_shape=cfg.arch_input_shape, arch_specs=cfg.arch_specs,
                  attributes=attrs)
    for name, model in zip(attrs.names, models):
        export_q(model, out, prefix=f"q_stage0_{name}_")
    report.stage0 = {"na_epochs": na_epochs,
                     "active_units": [m.active_count for m in models],
                     "test_errors": stage0_errors}

    stage[0] = "recursion"
    records = []
    if cfg.recursion.iterations > 0:
        records = _recursion_multi(cfg, trainer, mh, attrs, train_ds, test_ds,
                                   xt, yt, xv, yv, val_idx, metrics)
    report.iterations = records

    stage[0] = "eval"
    final_errors = None
    if test_ds.true_labels is not None:
        final_errors = _multi_test_rows(metrics, attrs, mh, test_ds,
                                        "final", len(records), 0)
    save_snapshot(out / "snapshot_final.nam", mh, models,
                  input_shape=cfg.arch_input_shape, arch_specs=cfg.arch_specs,
                  attributes=attrs)
    for name, model in zip(attrs.names, models):
        export_q(model, out, prefix=f"q_final_{name}_")
    report.test_errors["final"] = final_errors


def _multi_test_rows(metrics, attrs, mh, test_ds, stage_name, iteration, epoch):
    per_attr, all_err = evaluate_all_metric(mh, test_ds.features, test_ds.true_labels)
    for name, err in zip(attrs.names, per_attr):
        metrics.add(stage_name, iteration, epoch, "test", f"error.{name}", err)
    metrics.add(stage_name, iteration, epoch, "test", "error.ALL", all_err)
    return per_attr, all_err


def _recursion_multi(cfg, trainer, mh, attrs, train_ds, test_ds,
                     xt, yt, xv, yv, val_idx, metrics):
    stopping = StoppingRule(cfg.recursion.min_improvement, cfg.recursion.iterations)
    rec_epochs = cfg.recursion.epochs or cfg.na.stage_epochs

    if train_ds.true_labels is not None:
        val_true = train_ds.true_labels[val_idx]

        def val_metric():
            _, all_err = evaluate_all_metric(mh, xv, val_true)
            return all_err
    else:
        def val_metric():
            return trainer.val_loss(xv, yv, use_na=True)

    def on_iteration(record):
        t = record["iteration"]
        for epoch, loss in enumerate(record["train_losses"]):
            metrics.add("recursion", t, epoch, "train", "loss", loss)
        metrics.add("recursion", t, len(record["train_losses"]) - 1,
                    "val", "metric", record["val_metric"])
        if test_ds.true_labels is not None:
            record["test_errors"] = _multi_test_rows(
                metrics, attrs, mh, test_ds, "recursion", t,
                len(record["train_losses"]) - 1)

    return run_recursion_multi(trainer, xt, yt,
                               alpha_base=cfg.recursion.alpha_base,
                               epochs_per_iteration=rec_epochs,
                               stopping=stopping, val_metric=val_metric,
                               on_iteration=on_iteration)


def resume_recursion(cfg: ExperimentConfig, snapshot_path, out_dir=None) -> RunReport:
    """Resume from a stage-0 snapshot and run only the recursion rounds.

    Data is re-derived from the config (generation and injection are pure
    functions of the seeds), so the snapshot and config must describe the
    same run. Optimizer velocities restart at zero.
    """
    started = time.perf_counter()
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = MetricsLog()
    report = RunReport(config_echo=dict(cfg.echo), seed=cfg.seed,
                       version=__version__, out_dir=str(out))
    stage = ["resume"]
    try:
        validate_paths(cfg)
        snap = load_snapshot(snapshot_path)
        if (snap["kind"] == "multi") != (cfg.attributes is not None):
            raise ConfigError("snapshot kind does not match the config's attribute mode")
        stage[0] = "data"
        train_ds, test_ds, _ = resolve_data(cfg, None)
        train_idx, val_idx = split_train_val(train_ds.n, cfg.na.val_fraction, cfg.seed)
        xt, yt = train_ds.features[train_idx], train_ds.given_labels[train_idx]
        xv, yv = train_ds.features[val_idx], train_ds.given_labels[val_idx]

        stage[0] = "recursion"
        if cfg.recursion.iterations < 1:
            raise ConfigError("recursion.iterations must be >= 1 to resume")
        if snap["kind"] == "single":
            net, model = snap["net"], snap["models"][0]
            trainer = Trainer(net, cfg.opt, model, seed=cfg.seed)
            records = _recursion_single(cfg, trainer, net, model, train_ds, test_ds,
                                        xt, yt, xv, yv, val_idx, train_idx, metrics)
            save_args = dict(input_shape=snap["input_shape"], arch_specs=snap["arch_specs"])
            stage[0] = "eval"
            if test_ds.true_labels is not None:
                err = evaluate(net, test_ds.features, test_ds.true_labels)
                metrics.add("final", len(records), 0, "test", "error", err)
                report.test_errors["final"] = err
            save_snapshot(out / "snapshot_final.nam", net, [model], **save_args)
            export_q(model, out, prefix="q_final_")
        else:
            mh, models, attrs = snap["net"], snap["models"], snap["attributes"]
            trainer = MultiTrainer(mh, cfg.opt, na_models=models, seed=cfg.seed)
            records = _recursion_multi(cfg, trainer, mh, attrs, train_ds, test_ds,
                                       xt, yt, xv, yv, val_idx, metrics)
            stage[0] = "eval"
            if test_ds.true_labels is not None:
                report.test_errors["final"] = _multi_test_rows(
                    metrics, attrs, mh, test_ds, "final", len(records), 0)
            save_snapshot(out / "snapshot_final.nam", mh, models,
                          input_shape=snap["input_shape"], arch_specs=snap["arch_specs"],
                          attributes=attrs)
            for name, model in zip(attrs.names, models):
                export_q(model, out, prefix=f"q_final_{name}_")
        report.iterations = records
    except NoiseAttnError as exc:
        metrics.write(out / "metrics.csv")
        raise StageError(stage[0], exc) from exc
    metrics.write(out / "metrics.csv")
    report.wall_clock_s = time.perf_counter() - started
    (out / "report.json").write_text(report.to_json())
    return report
