"""Line-based experiment configuration: ``section.key = value`` pairs.

Blank lines and ``#`` comments are ignored; keys are dotted, values are
scalars or comma-separated lists. Unknown or duplicate keys and NaN values
are errors, so typos fail fast. The keys of a section are the fields of
its dataclass, which holds their defaults: ``opt.*`` TrainSettings,
``na.*`` UnitSchedule, ``recursion.*`` RecursionSchedule and
``data.synthetic.*`` SyntheticSpec, which also check their ranges, and
``data.*`` DataConfig and ``noise.*`` NoiseConfig, which build_config
checks as the data stage would. build_config reads the
rest (``seed``, ``out``, ``attributes`` and ``arch.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .attention import UnitSchedule
from .errors import ConfigError
from .multihead import AttributeSpec
from .nn import Conv2D, Dense, Flatten, LayerSpec, MaxPool2x2, ReLU
from .data import SyntheticSpec
from .recursion import RecursionSchedule
from .training import TrainSettings


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# Architecture DSL


def parse_input_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad input shape {text!r}: {exc}") from exc
    if not shape or any(s < 1 for s in shape):
        raise ConfigError(f"input shape entries must be positive, got {text!r}")
    return shape


def serialize_input_shape(shape) -> str:
    return "x".join(str(s) for s in shape)


def parse_arch(text: str) -> list[LayerSpec]:
    """dense:IN:OUT | conv:INCH:OUTCH:KERNEL[:STRIDE] | relu | pool | flatten"""
    specs: list[LayerSpec] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        parts = token.split(":")
        kind = parts[0].lower()
        try:
            if kind == "dense" and len(parts) == 3:
                specs.append(Dense(int(parts[1]), int(parts[2])))
            elif kind == "conv" and len(parts) in (4, 5):
                stride = int(parts[4]) if len(parts) == 5 else 1
                specs.append(Conv2D(int(parts[1]), int(parts[2]), int(parts[3]), stride))
            elif kind == "relu" and len(parts) == 1:
                specs.append(ReLU())
            elif kind == "pool" and len(parts) == 1:
                specs.append(MaxPool2x2())
            elif kind == "flatten" and len(parts) == 1:
                specs.append(Flatten())
            else:
                raise ConfigError(f"bad layer token {token!r}")
        except ValueError as exc:
            raise ConfigError(f"bad layer token {token!r}: {exc}") from exc
    if not specs:
        raise ConfigError("architecture has no layers")
    return specs


def serialize_arch(specs) -> str:
    tokens = []
    for spec in specs:
        if isinstance(spec, Dense):
            tokens.append(f"dense:{spec.in_dim}:{spec.out_dim}")
        elif isinstance(spec, Conv2D):
            tokens.append(f"conv:{spec.in_ch}:{spec.out_ch}:{spec.kernel}:{spec.stride}")
        elif isinstance(spec, ReLU):
            tokens.append("relu")
        elif isinstance(spec, MaxPool2x2):
            tokens.append("pool")
        elif isinstance(spec, Flatten):
            tokens.append("flatten")
        else:
            raise ConfigError(f"cannot serialize layer spec {spec!r}")
    return ",".join(tokens)


# ---------------------------------------------------------------------------
# Typed config


@dataclass
class DataConfig:
    source: str = "synthetic"  # synthetic | nld
    train_path: str | None = None
    test_path: str | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)


@dataclass
class NoiseConfig:
    mode: str = "none"  # none | uniform | matrix | per_class
    rho: tuple[float, ...] = (0.0,)
    matrix_path: str | None = None
    per_class: tuple[float, ...] | None = None
    seed: int | tuple | None = None  # defaults to (experiment seed, 37)


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/experiment"
    data: DataConfig = field(default_factory=DataConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    arch_input_shape: tuple[int, ...] | None = None
    arch_specs: list[LayerSpec] | None = None
    opt: TrainSettings = field(default_factory=TrainSettings)
    na: UnitSchedule = field(default_factory=UnitSchedule)
    recursion: RecursionSchedule = field(default_factory=RecursionSchedule)
    attributes: AttributeSpec | None = None
    echo: dict[str, str] = field(default_factory=dict)


class _Entries:
    """Tracks which keys were consumed so leftovers can be rejected."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)
        self.used: set[str] = set()

    def get(self, key, default=None):
        if key in self.entries:
            self.used.add(key)
            return self.entries[key]
        return default

    def get_int(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc

    def get_float(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
        if np.isnan(value):
            raise ConfigError(f"{key}: NaN is not a valid value")
        return value

    def get_floats(self, key, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            values = tuple(float(p) for p in raw.split(",") if p.strip())
        except ValueError as exc:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from exc
        if np.isnan(values).any():
            raise ConfigError(f"{key}: NaN is not a valid value")
        return values

    def reject_unknown(self):
        unknown = sorted(set(self.entries) - self.used)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _parse_attributes(raw: str) -> AttributeSpec:
    names, counts = [], []
    for token in (t.strip() for t in raw.split(",")):
        if not token:
            continue
        name, sep, count = token.partition(":")
        if not sep:
            raise ConfigError(f"attribute token {token!r} must be name:classes")
        try:
            counts.append(int(count))
        except ValueError as exc:
            raise ConfigError(f"attribute token {token!r}: {exc}") from exc
        names.append(name.strip())
    return AttributeSpec(counts, names)


def _section(e: _Entries, prefix: str, cls, **defaults):
    """Build the dataclass of one config section from its ``prefix.<field>``
    keys, each read as the type of the class default (a string, a float or
    else an integer); ``defaults`` replace class defaults by field name.
    A range error names the full key."""
    base = cls()
    values = {}
    for f in fields(cls):
        default = getattr(base, f.name)
        get = (e.get if isinstance(default, str)
               else e.get_float if isinstance(default, float) else e.get_int)
        values[f.name] = get(f"{prefix}.{f.name}", defaults.get(f.name, default))
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}.{exc}") from exc


def _check_noise(noise: NoiseConfig, count: int):
    """The checks the data stage makes of ``noise.*`` that need no data,
    made at load: whenever noise is injected, one ``rho`` or one per
    attribute, each in [0, 1) in uniform mode; rates in [0, 1) in
    per_class mode; a matrix file in matrix mode."""
    if noise.mode == "none":
        return
    if len(noise.rho) not in (1, count):
        raise ConfigError(f"noise.rho needs 1 or {count} values, got {len(noise.rho)}")
    if noise.mode == "uniform":
        for rho in noise.rho:
            if not 0.0 <= rho < 1.0:
                raise ConfigError(f"noise.rho must lie in [0, 1), got {rho}")
    if noise.mode == "per_class" and (
            noise.per_class is None or not all(0.0 <= r < 1.0 for r in noise.per_class)):
        raise ConfigError(f"noise.per_class needs rates in [0, 1) in per_class mode, "
                          f"got {noise.per_class}")
    if noise.mode == "matrix" and noise.matrix_path is None:
        raise ConfigError("noise.matrix_path is needed in matrix mode")


def build_config(entries: dict[str, str]) -> ExperimentConfig:
    e = _Entries(entries)
    cfg = ExperimentConfig(echo=dict(entries))

    cfg.seed = e.get_int("seed", 0)
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    cfg.out_dir = e.get("out", cfg.out_dir)

    attrs = e.get("attributes")
    if attrs:
        cfg.attributes = _parse_attributes(attrs)

    # data
    d = cfg.data
    d.source = e.get("data.source", d.source)
    if d.source not in ("synthetic", "nld"):
        raise ConfigError(f"data.source must be synthetic or nld, got {d.source!r}")
    d.train_path = e.get("data.train_path", d.train_path)
    d.test_path = e.get("data.test_path", d.test_path)
    d.synthetic = _section(e, "data.synthetic", SyntheticSpec, seed=(cfg.seed, 31))

    # noise
    n = cfg.noise
    n.mode = e.get("noise.mode", n.mode)
    if n.mode not in ("none", "uniform", "matrix", "per_class"):
        raise ConfigError(f"unknown noise.mode {n.mode!r}")
    n.rho = e.get_floats("noise.rho", n.rho)
    n.matrix_path = e.get("noise.matrix_path", n.matrix_path)
    n.per_class = e.get_floats("noise.per_class", n.per_class)
    noise_seed = e.get_int("noise.seed")
    n.seed = noise_seed if noise_seed is not None else (cfg.seed, 37)
    _check_noise(n, 1 if cfg.attributes is None else cfg.attributes.k)

    # architecture
    shape_raw = e.get("arch.input_shape")
    if shape_raw is not None:
        cfg.arch_input_shape = parse_input_shape(shape_raw)
    layers_raw = e.get("arch.layers")
    if layers_raw is not None:
        cfg.arch_specs = parse_arch(layers_raw)

    cfg.opt = _section(e, "opt", TrainSettings)
    cfg.na = _section(e, "na", UnitSchedule)
    cfg.recursion = _section(e, "recursion", RecursionSchedule)
    if cfg.recursion.iterations and cfg.recursion.epochs is None and not cfg.na.stage_epochs:
        raise ConfigError("recursion.epochs is needed when na.stage_epochs = 0")

    e.reject_unknown()
    return cfg


def load_config(path, overrides=None) -> ExperimentConfig:
    """Read and build a config file; ``overrides`` entries (such as ``seed``
    or ``out``) replace or add to the file's."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_config({**parse_config_text(text), **(overrides or {})})


def validate_paths(cfg: ExperimentConfig):
    """Referenced input paths must exist before a run starts."""
    for label, p in (("data.train_path", cfg.data.train_path),
                     ("data.test_path", cfg.data.test_path),
                     ("noise.matrix_path", cfg.noise.matrix_path)):
        if p is not None and not Path(p).exists():
            raise ConfigError(f"{label}: no such file {p!r}")


def load_noise_matrix(path) -> np.ndarray:
    try:
        m = np.loadtxt(path, delimiter=",", dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not read noise matrix {path!r}: {exc}") from exc
    return np.atleast_2d(m)
