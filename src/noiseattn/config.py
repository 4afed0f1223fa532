"""Line-based experiment configuration: ``section.key = value`` pairs.

Blank lines and ``#`` comments are ignored; keys are dotted, values are
scalars or comma-separated lists. Unknown or duplicate keys are errors,
so typos fail fast; so is a value that does not parse as its key's type,
or a NaN (one rule, ``_Entries._parse``). The keys of a section are the
fields of its dataclass, which holds their defaults: ``opt.*``
TrainSettings, ``na.*`` UnitSchedule, ``recursion.*`` RecursionSchedule,
``data.synthetic.*`` SyntheticSpec and ``noise.*`` NoiseSpec, which also
check their ranges and seeds, so code past the config takes them as given;
and ``data.*`` DataConfig. build_config checks
``data.source`` (an nld source needs both data paths) and, against the
attributes, ``noise.rho``, ``noise.per_class`` and a synthetic ``kind``;
it reads the rest: ``seed``, ``out``, ``attributes`` (an AttributeSpec,
defined here, which checks names and class counts) and ``arch.*``
(tokens of the LAYER_KINDS).
"""

from __future__ import annotations

import re
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .attention import UnitSchedule
from .errors import ConfigError
from .nn import Conv2D, Dense, Flatten, LayerSpec, MaxPool2x2, ReLU
from .data import NoiseSpec, SyntheticSpec
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


LAYER_KINDS = {"dense": Dense, "conv": Conv2D, "relu": ReLU, "pool": MaxPool2x2,
               "flatten": Flatten}


def parse_arch(text: str) -> list[LayerSpec]:
    """dense:IN:OUT | conv:INCH:OUTCH:KERNEL[:STRIDE] | relu | pool | flatten

    A ``LAYER_KINDS`` key, then its fields as integers (defaults optional)."""
    specs: list[LayerSpec] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        kind, *args = token.split(":")
        cls = LAYER_KINDS.get(kind.lower())
        required = [f.default is MISSING for f in fields(cls)] if cls else None
        if required is None or not sum(required) <= len(args) <= len(required):
            raise ConfigError(f"bad layer token {token!r}")
        try:
            specs.append(cls(*(int(a) for a in args)))
        except ValueError as exc:
            raise ConfigError(f"bad layer token {token!r}: {exc}") from exc
    if not specs:
        raise ConfigError("architecture has no layers")
    return specs


def serialize_arch(specs) -> str:
    """The ``parse_arch`` text of ``specs``, every field written out."""
    kinds = {cls: kind for kind, cls in LAYER_KINDS.items()}
    tokens = []
    for spec in specs:
        if type(spec) not in kinds:
            raise ConfigError(f"cannot serialize layer spec {spec!r}")
        tokens.append(":".join([kinds[type(spec)], *map(str, astuple(spec))]))
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
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/experiment"
    data: DataConfig = field(default_factory=DataConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
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

    def _parse(self, key, default, parse, expected):
        """``parse`` of the value of ``key``, or ``default`` when it is absent.
        A value that does not parse, or a float value holding a NaN, is a
        ConfigError naming the key."""
        raw = self.get(key)
        if raw is None:
            return default
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from exc
        if parse is not int and np.isnan(value).any():
            raise ConfigError(f"{key}: NaN is not a valid value")
        return value

    def get_int(self, key, default=None):
        return self._parse(key, default, int, "an integer")

    def get_float(self, key, default=None):
        return self._parse(key, default, float, "a number")

    def get_floats(self, key, default=None):
        def parse(raw):
            return tuple(float(p) for p in raw.split(",") if p.strip())
        return self._parse(key, default, parse, "comma-separated numbers")

    def reject_unknown(self):
        unknown = sorted(set(self.entries) - self.used)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


@dataclass
class AttributeSpec:
    """The ``attributes`` key; unnamed attributes are ``attr0``, ``attr1``, ..."""

    class_counts: list[int]
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.class_counts) < 1:
            raise ConfigError("need at least one attribute")
        if any(c < 2 for c in self.class_counts):
            raise ConfigError(f"every attribute needs >= 2 classes, got {self.class_counts}")
        if not self.names:
            self.names = [f"attr{k}" for k in range(len(self.class_counts))]
        if len(self.names) != len(self.class_counts):
            raise ConfigError("names and class_counts lengths differ")
        if (len(set(self.names)) != len(self.names) or "ALL" in self.names
                or not all(re.fullmatch(r"[A-Za-z0-9_-]+", name) for name in self.names)):
            raise ConfigError(f"attribute names must be distinct, not ALL, and made of "
                              f"letters, digits, _ and -; got {self.names}")


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


def serialize_attributes(attributes) -> str | None:
    """The ``_parse_attributes`` text of ``attributes``; None for single-label."""
    if attributes is None:
        return None
    return ",".join(f"{n}:{c}" for n, c in zip(attributes.names, attributes.class_counts))


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
    if d.source == "nld" and not (d.train_path and d.test_path):
        raise ConfigError("data.source = nld needs data.train_path and data.test_path")
    d.synthetic = _section(e, "data.synthetic", SyntheticSpec, seed=(cfg.seed, 31))
    if cfg.attributes is not None and d.source == "synthetic" and d.synthetic.kind != "blobs":
        raise ConfigError(f"data.synthetic.kind must be blobs with attributes, "
                          f"got {d.synthetic.kind!r}")

    cfg.noise = NoiseSpec(
        mode=e.get("noise.mode", "none"), rho=e.get_floats("noise.rho", (0.0,)),
        matrix_path=e.get("noise.matrix_path"), per_class=e.get_floats("noise.per_class"),
        seed=e.get_int("noise.seed", (cfg.seed, 37)))
    if cfg.noise.mode != "none":
        cfg.noise.rhos(1 if cfg.attributes is None else len(cfg.attributes.class_counts))
    if (cfg.noise.mode == "per_class" and cfg.attributes is not None
            and set(cfg.attributes.class_counts) != {len(cfg.noise.per_class)}):
        raise ConfigError(f"noise.per_class has {len(cfg.noise.per_class)} rates, the "
                          f"attributes have {cfg.attributes.class_counts} classes")

    # architecture
    shape_raw = e.get("arch.input_shape")
    if shape_raw is not None:
        cfg.arch_input_shape = parse_input_shape(shape_raw)
    layers_raw = e.get("arch.layers")
    if layers_raw is not None:
        cfg.arch_specs = parse_arch(layers_raw)

    cfg.opt = _section(e, "opt", TrainSettings)
    cfg.na = _section(e, "na", UnitSchedule)
    cfg.recursion = _section(e, "recursion", RecursionSchedule, epochs=cfg.na.stage_epochs)

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
