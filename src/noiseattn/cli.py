"""Command-line entry points.

Subcommands: synth, inject, train, recurse, eval, export-q. Every run is
driven by a line-based config file; --seed and --out override the config.
Exit code 0 on success, 2 for configuration/data/format problems, 1 for
runtime failures; diagnostics carry the failing pipeline stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config
from .data import load_dataset, save_dataset
from .errors import ConfigError, DataError, FormatError, NoiseAttnError, StageError
from .harness import (_export_models, _inject, _make_out_dir, _write_flips, evaluate,
                      load_snapshot, resolve_data, resume_recursion, run_experiment)
from .multihead import evaluate_all_metric
from .training import as_heads


def _load_config(args):
    if not args.config:
        raise ConfigError("this command needs --config")
    overrides = {key: str(value) for key, value in (("seed", args.seed), ("out", args.out))
                 if value is not None}
    return load_config(args.config, overrides)


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _make_out_dir(cfg.out_dir)
    # synth writes clean data; inject adds noise
    clean = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, mode="none"))
    train, test, _ = resolve_data(clean, out)
    print(f"wrote {out / 'train.nld'} ({train.n} samples) and "
          f"{out / 'test.nld'} ({test.n} samples)")
    return 0


def _cmd_inject(args) -> int:
    cfg = _load_config(args)
    out = _make_out_dir(cfg.out_dir)
    source = args.data or cfg.data.train_path
    if not source:
        raise ConfigError("inject needs --data or data.train_path")
    dataset = load_dataset(source)
    if cfg.noise.mode == "none":
        raise ConfigError("noise.mode is none; nothing to inject")
    noisy, flips = _inject(cfg, dataset)
    save_dataset(noisy, out / "noisy_train.nld")
    _write_flips(out / "flips.csv", dataset.k, flips)
    print(f"wrote {out / 'noisy_train.nld'} ({sum(len(f) for f in flips)} flipped labels)")
    return 0


def _finished(report, what) -> int:
    print(f"{what} complete: artifacts in {report.out_dir}")
    final = report.test_errors.get("final")
    if final is not None:
        print(f"final test error: {final}")
    return 0


def _cmd_train(args) -> int:
    return _finished(run_experiment(_load_config(args)), "run")


def _cmd_recurse(args) -> int:
    cfg = _load_config(args)
    return _finished(resume_recursion(cfg, args.snapshot, args.out), "recursion")


def _cmd_eval(args) -> int:
    if not args.data:
        raise ConfigError("eval needs --data")
    snap = load_snapshot(args.snapshot)
    dataset = load_dataset(args.data)
    if dataset.true_labels is None:
        raise DataError("evaluation needs a dataset with true labels")
    if snap["kind"] == "single":
        print(f"test error: {evaluate(snap['net'], dataset.features, dataset.true_labels)}")
        return 0
    per_attr, all_err = evaluate_all_metric(snap["net"], dataset.features, dataset.true_labels)
    for name, err in zip(snap["net"].names, per_attr):
        print(f"test error [{name}]: {err}")
    print(f"test error [ALL]: {all_err}")
    return 0


def _cmd_export_q(args) -> int:
    snap = load_snapshot(args.snapshot)
    paths = _export_models(as_heads(snap["net"]), snap["models"], Path(args.out or "."), "q_")
    for csv_path, pgm_path in paths:
        print(f"wrote {csv_path} and {pgm_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noiseattn",
        description="Train classifiers robustly on noisy labels with "
                    "per-sample noise units and recursive self-distillation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_snapshot=False, needs_data=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        if needs_snapshot:
            p.add_argument("--snapshot", required=True, help="model snapshot (.nam)")
        if needs_data:
            p.add_argument("--data", help="dataset path (.nld)")
        p.set_defaults(fn=fn)
        return p

    add("synth", _cmd_synth, "generate synthetic datasets")
    add("inject", _cmd_inject, "inject label noise into a dataset", needs_data=True)
    add("train", _cmd_train, "run the full configured pipeline")
    add("recurse", _cmd_recurse, "resume recursion from a stage-0 snapshot",
        needs_snapshot=True)
    add("eval", _cmd_eval, "evaluate a snapshot on a test set",
        needs_snapshot=True, needs_data=True)
    add("export-q", _cmd_export_q, "export learned units as CSV + PGM",
        needs_snapshot=True)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, (ConfigError, DataError, FormatError)) else 1
    except (ConfigError, DataError, FormatError) as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return 2
    except NoiseAttnError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
