"""Line-based experiment configuration: ``section.key = value`` pairs.

Blank lines and ``#`` comments are ignored; keys are dotted, values are
scalars or comma-separated lists. Unknown or duplicate keys are errors,
so typos fail fast; so is a value that does not parse as its key's type,
or a NaN (one rule, ``_Entries._parse``). The keys of a section are the
fields of its dataclass, which holds their defaults and is read by one
reader, ``_section``: ``data.*`` DataConfig, ``data.synthetic.*``
SyntheticSpec, ``noise.*`` NoiseSpec, ``opt.*`` TrainSettings, ``na.*``
UnitSchedule and ``recursion.*`` RecursionSchedule. Each checks its own
ranges, seeds and (DataConfig) that an nld source names both data paths,
so code past the config takes them as given. build_config checks what
spans sections: ``noise.rho``, ``noise.per_class`` and a synthetic
``kind`` against the attributes. It reads the rest: ``seed``, ``out``,
``attributes`` (an AttributeSpec, defined here, which checks names and
class counts) and ``arch.*`` (tokens of the LAYER_KINDS).
"""

from __future__ import annotations

import re
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass
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
    train_path: str = ""
    test_path: str = ""
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):  # each message starts with the field it checks
        if self.source not in ("synthetic", "nld"):
            raise ConfigError(f"source must be synthetic or nld, got {self.source!r}")
        if self.source == "nld" and not (self.train_path and self.test_path):
            raise ConfigError("source = nld needs data.train_path and data.test_path")


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


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip())


# How a key is parsed, by the type of its field's class default.
_PARSERS = {int: (int, "an integer"), float: (float, "a number"),
            tuple: (_floats, "comma-separated numbers")}


def _section(e: _Entries, prefix: str, cls, **defaults):
    """Build the dataclass of one config section from its ``prefix.<field>``
    keys, each read as the type of the field's class default: a string, or
    through ``_Entries._parse`` an int, a float or a tuple of floats. A
    dataclass-valued field is its own section, ``prefix.<field>.*``.
    ``defaults`` replace class defaults by field name (for a section
    field, a dict of its own defaults). A range error names the full key:
    the class's message starts with the field it checks."""
    base = cls()
    values = {}
    for f in fields(cls):
        key, default = f"{prefix}.{f.name}", getattr(base, f.name)
        if is_dataclass(default):
            values[f.name] = _section(e, key, type(default), **defaults.get(f.name, {}))
        elif isinstance(default, str):
            values[f.name] = e.get(key, defaults.get(f.name, default))
        else:
            values[f.name] = e._parse(key, defaults.get(f.name, default),
                                      *_PARSERS[type(default)])
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}.{exc}") from exc


def build_config(entries: dict[str, str]) -> ExperimentConfig:
    e = _Entries(entries)
    seed = e._parse("seed", 0, *_PARSERS[int])
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    out_dir = e.get("out", ExperimentConfig.out_dir)
    if not out_dir:  # Path("") is the working directory
        raise ConfigError("out: expected an output directory, got ''")

    attrs = e.get("attributes")
    attributes = _parse_attributes(attrs) if attrs else None

    data = _section(e, "data", DataConfig, synthetic={"seed": (seed, 31)})
    if attributes is not None and data.source == "synthetic" and data.synthetic.kind != "blobs":
        raise ConfigError(f"data.synthetic.kind must be blobs with attributes, "
                          f"got {data.synthetic.kind!r}")

    noise = _section(e, "noise", NoiseSpec, seed=(seed, 37))
    if noise.mode != "none":
        noise.rhos(1 if attributes is None else len(attributes.class_counts))
    if (noise.mode == "per_class" and attributes is not None
            and set(attributes.class_counts) != {len(noise.per_class)}):
        raise ConfigError(f"noise.per_class has {len(noise.per_class)} rates, the "
                          f"attributes have {attributes.class_counts} classes")

    # architecture
    shape_raw = e.get("arch.input_shape")
    input_shape = None if shape_raw is None else parse_input_shape(shape_raw)
    layers_raw = e.get("arch.layers")
    specs = None if layers_raw is None else parse_arch(layers_raw)

    opt = _section(e, "opt", TrainSettings)
    na = _section(e, "na", UnitSchedule)
    recursion = _section(e, "recursion", RecursionSchedule, epochs=na.stage_epochs)

    e.reject_unknown()
    return ExperimentConfig(seed, out_dir, data, noise, arch_input_shape=input_shape,
                            arch_specs=specs, opt=opt, na=na, recursion=recursion,
                            attributes=attributes, echo=dict(entries))


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
        if p and not Path(p).exists():
            raise ConfigError(f"{label}: no such file {p!r}")
