"""Command-line entry points.

Subcommands: synth, inject, train, recurse, eval, export-q. The first four
are driven by a line-based config file, which --seed and --out override;
eval and export-q read a snapshot, and eval checks its test set against
the snapshot's heads before scoring. Each takes only the flags it reads.
Exit code 0 on success, 2 for configuration/data/format problems, for
runs too large for memory and for a file write the system refuses (a
full disk, say), 1 for runtime failures; diagnostics carry the failing
pipeline stage. ``synth``, ``train`` and ``recurse`` stream a generated
test set into ``test.nld`` a block at a time, so none of them holds its
features.

The argparse parser is built on the first ``main`` call and reused by
every later call in the process: callers that run many commands in one
process (the benchmark's repeated ``eval``, the test suite) would
otherwise rebuild seven parsers per call. Parsing never changes the
parser, and each call parses into a fresh namespace, so no call sees
another's arguments.

``eval`` reads its test set's header, sizes and labels and checks them
against the snapshot's heads before it scores anything, but never loads
the features whole: each ``EVAL_CHUNK`` chunk reads and checks its own
rows from the file (``data.FeatureFile``). So a label that does not fit a
head is reported before non-finite features anywhere in the file, and a
non-finite value or a cut in a late chunk is still one config error line,
with nothing on stdout. A test set with two full chunks or more is scored
on the calling thread and a thread pool when the process may run on two
CPUs (see ``nn.for_each_chunk``), with the bits of one thread. A chunk
that runs out of memory is reported once every chunk has finished, as the
same one config error line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .config import load_config
from .data import load_dataset
from .errors import (ConfigError, DataError, FormatError, NoiseAttnError, StageError,
                     out_of_memory)
from .harness import (_check_fit, _export_models, _inject_and_save, _make_out_dir, evaluate,
                      load_snapshot, resolve_data, resume_recursion, run_experiment)


def _load_config(args):
    if not args.config:
        raise ConfigError("this command needs --config")
    overrides = {key: str(value) for key, value in (("seed", args.seed), ("out", args.out))
                 if value is not None}
    return load_config(args.config, overrides)


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    if cfg.data.source != "synthetic":
        raise ConfigError(f"synth needs data.source = synthetic, got {cfg.data.source!r}")
    out = _make_out_dir(cfg.out_dir)
    # synth writes clean data; inject adds noise
    clean = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, mode="none"))
    try:
        train, test = resolve_data(clean, out)
    except MemoryError as exc:  # a train run meets this inside harness._Run
        raise StageError("data", out_of_memory(exc)) from exc
    print(f"wrote {out / 'train.nld'} ({train.n} samples) and "
          f"{out / 'test.nld'} ({test.n} samples)")
    return 0


def _cmd_inject(args) -> int:
    cfg = _load_config(args)
    out = _make_out_dir(cfg.out_dir)
    source = args.data or cfg.data.train_path
    if not source:
        raise ConfigError("inject needs --data or data.train_path")
    _, flips = _inject_and_save(cfg, load_dataset(source), out)
    print(f"wrote {out / 'noisy_train.nld'} ({sum(len(f) for f in flips)} flipped labels)")
    return 0


def _print_errors(label, errors, attributes):
    """``label: error`` without ``attributes``; else ``label [name]: error`` per
    attribute and ``[ALL]``, from ``errors`` = (per-attribute errors, joint error)."""
    if attributes is None:
        print(f"{label}: {errors}")
        return
    per_attr, joint = errors
    for name, err in zip([*attributes.names, "ALL"], [*per_attr, joint]):
        print(f"{label} [{name}]: {err}")


def _finished(report, cfg, what) -> int:
    print(f"{what} complete: artifacts in {report.out_dir}")
    final = report.test_errors.get("final")
    if final is not None:
        _print_errors("final test error", final, cfg.attributes)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    return _finished(run_experiment(cfg), cfg, "run")


def _cmd_recurse(args) -> int:
    cfg = _load_config(args)
    return _finished(resume_recursion(cfg, args.snapshot), cfg, "recursion")


def _cmd_eval(args) -> int:
    if not args.data:
        raise ConfigError("eval needs --data")
    view, _ = load_snapshot(args.snapshot)
    dataset = load_dataset(args.data, features=False)
    _check_fit(view, dataset, "test")
    _print_errors("test error", evaluate(view, dataset.features, dataset.true_labels),
                  view.attributes)
    return 0


def _cmd_export_q(args) -> int:
    if args.out == "":  # an absent --out means the working directory; an empty one is a slip
        raise ConfigError("--out: expected an output directory, got ''")
    paths = _export_models(*load_snapshot(args.snapshot), Path(args.out or "."), "q_")
    for csv_path, pgm_path in paths:
        print(f"wrote {csv_path} and {pgm_path}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="noiseattn",
        description="Train classifiers robustly on noisy labels with "
                    "per-sample noise units and recursive self-distillation.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {"config": {"help": "experiment config file"},
             "seed": {"type": int, "help": "override the config seed"},
             "out": {"help": "output directory"},
             "snapshot": {"required": True, "help": "model snapshot (.nam)"},
             "data": {"help": "dataset path (.nld)"}}

    def add(name, fn, help_text, *names):
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(fn=fn)

    run = ("config", "seed", "out")
    add("synth", _cmd_synth, "generate synthetic datasets", *run)
    add("inject", _cmd_inject, "inject label noise into a dataset", *run, "data")
    add("train", _cmd_train, "run the full configured pipeline", *run)
    add("recurse", _cmd_recurse, "resume recursion from a stage-0 snapshot", *run, "snapshot")
    add("eval", _cmd_eval, "evaluate a snapshot on a test set", "snapshot", "data")
    add("export-q", _cmd_export_q, "export learned units as CSV + PGM", "snapshot", "out")
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) into a fresh namespace and run
    its subcommand; returns the exit code. The parser is built once per
    process (``_parser``), so a caller that runs many commands in one process,
    such as a benchmark or a test suite, pays for argparse only once."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, (ConfigError, DataError, FormatError)) else 1
    except (ConfigError, DataError, FormatError) as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # outside a run: a load, an injection or an export
        print(f"error [config] {out_of_memory(exc)}", file=sys.stderr)
        return 2
    except NoiseAttnError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
