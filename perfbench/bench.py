"""One repetition of a workload through the public pipeline, with checks.

A repetition is ``build_config`` -> ``run_experiment`` -> CLI ``eval`` on
the run's ``snapshot_final.nam`` and ``test.nld``. The operations are the
run and each eval call; a check that fails counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .workloads import Workload, config_entries

Q_TOLERANCE = 1e-9
END_TO_END = {  # name -> unit, as printed by run.py --trace 0
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}
_EVAL_LINE = re.compile(r"^test error(?: \[ALL\])?: (\S+)$")


def load_pipeline(root: Path):
    """Import ``noiseattn`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "noiseattn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no noiseattn sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import noiseattn
    import noiseattn.cli  # noqa: F401  (the eval entry point)
    if Path(noiseattn.__file__).resolve().parent != (src / "noiseattn").resolve():
        raise SystemExit(f"perfbench: noiseattn was imported from {noiseattn.__file__}, not {src}")
    return noiseattn


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Rep:
    """Outcome of one repetition."""

    run_ok: bool = False
    run_s: float = 0.0
    eval_s: list = field(default_factory=list)  # one wall time per passing eval call
    eval_attempted: int = 0
    eval_failed: int = 0
    errors: list = field(default_factory=list)
    test_rows: int = 0
    sample_passes: int = 0
    test_error: float | None = None
    digests: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    layers: dict | None = None  # per-layer metrics of a traced repetition
    coverage: float | None = None  # share of run_experiment under stage spans
    kernel_s: list = field(default_factory=list)  # host-speed kernel before run, after run and each eval

    def fail(self, what: str):
        self.errors.append(what)


def final_error(report: dict) -> float:
    """``final`` for single-label runs, the joint ALL error for multi-attribute runs."""
    final = report["test_errors"]["final"]
    return float(final[-1] if isinstance(final, list) else final)


def check_metrics_csv(path) -> dict:
    """Every value finite; returns the number of train rows per stage."""
    epochs: dict[str, int] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not math.isfinite(float(row["value"])):
                raise ValueError(f"non-finite value in metrics.csv row {row}")
            if row["split"] == "train":
                epochs[row["stage"]] = epochs.get(row["stage"], 0) + 1
    return epochs


def check_q_exports(na, out: Path) -> int:
    import numpy as np  # not at module level: setup_probe times the first numpy import
    paths = sorted(out.glob("q_final_*unit*.csv"))
    if not paths:
        raise ValueError("no q_final_*unit*.csv exported")
    for path in paths:
        q = na.load_q_csv(path)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"{path.name}: not square, shape {q.shape}")
        if q.min() < -Q_TOLERANCE or np.abs(q.sum(axis=0) - 1.0).max() > Q_TOLERANCE:
            raise ValueError(f"{path.name}: not column-stochastic within {Q_TOLERANCE}")
    return len(paths)


def eval_once(na, snapshot: Path, data: Path) -> tuple[float, float]:
    """Run CLI eval; returns (wall seconds, printed error)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = na.cli.main(["eval", "--snapshot", str(snapshot), "--data", str(data)])
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise ValueError(f"eval exited with code {code}")
    printed = [m.group(1) for m in map(_EVAL_LINE.match, buf.getvalue().splitlines()) if m]
    if not printed:
        raise ValueError(f"eval printed no test error: {buf.getvalue()!r}")
    return elapsed, float(printed[-1])


def run_rep(na, workload: Workload, seed: int, out: Path, *, tiny=False,
            min_evals=1, eval_share=0.0, reference=None, probe=None) -> Rep:
    """One repetition; ``reference`` holds the digests a repeat must match.
    Eval calls repeat for at least ``min_evals`` calls and for ``eval_share``
    of the run's wall time. ``probe`` (``hostspeed.kernel_s``) is timed
    before the run, after it and after each eval call, so passing eval call
    ``i`` lies between ``kernel_s[i + 1]`` and ``kernel_s[i + 2]``."""
    rep = Rep()
    cfg = na.build_config(config_entries(workload, seed, out, tiny))
    if probe:
        rep.kernel_s.append(probe())
    t0 = time.perf_counter()
    try:
        na.run_experiment(cfg)
    except na.NoiseAttnError as exc:
        rep.fail(f"run_experiment raised {type(exc).__name__}: {exc}")
        return rep
    rep.run_s = time.perf_counter() - t0
    if probe:
        rep.kernel_s.append(probe())
    try:
        report = json.loads((out / "report.json").read_text())
        epochs = check_metrics_csv(out / "metrics.csv")
        n_fit = len(na.split_train_val(cfg.data.synthetic.n_train, cfg.na.val_fraction,
                                       cfg.seed)[0])
        rep.sample_passes = sum(epochs.values()) * n_fit
        rep.test_rows = cfg.data.synthetic.n_test
        rep.test_error = final_error(report)
        units = report["stage0"]["active_units"]
        rep.work = {"epochs": epochs, "active_units": units,
                    "rounds": len(report["iterations"]),
                    "q_exports": check_q_exports(na, out),
                    "sample_passes": rep.sample_passes}
        rep.digests = {name: sha256(out / name)
                       for name in ("metrics.csv", "snapshot_final.nam")}
        if rep.test_error >= workload.error_ceiling:
            raise ValueError(f"test error {rep.test_error} >= ceiling {workload.error_ceiling}")
        if reference is not None and rep.digests != reference:
            raise ValueError(f"artifacts differ from the first repeat: {rep.digests}")
        rep.run_ok = True
    except (ValueError, KeyError, OSError) as exc:
        rep.fail(f"run check: {exc}")
        return rep

    started = time.perf_counter()
    eval_seconds = eval_share * rep.run_s
    while rep.eval_attempted < min_evals or time.perf_counter() - started < eval_seconds:
        rep.eval_attempted += 1
        try:
            elapsed, printed = eval_once(na, out / "snapshot_final.nam", out / "test.nld")
            if probe:
                rep.kernel_s.append(probe())
            if printed != rep.test_error:
                raise ValueError(f"eval printed {printed}, report.json has {rep.test_error}")
            rep.eval_s.append(elapsed)
        except Exception as exc:  # boundary: a failed eval is counted, never dropped
            rep.eval_failed += 1
            rep.fail(f"eval: {exc}")
            traceback.print_exc(file=sys.stderr)
            break
    return rep


def traced_rep(na, workload: Workload, seed: int, out: Path, *, tiny=False,
               reference=None) -> Rep:
    """One repetition under the tracer, with one eval call so counts are exact;
    fills ``layers`` and ``coverage``. With ``reference``, tracing must leave
    the artifacts byte-identical to an untraced repeat."""
    from .tracer import Tracer, layer_metrics
    tracer = Tracer()
    with tracer.installed():
        rep = run_rep(na, workload, seed, out, tiny=tiny, min_evals=1, reference=reference)
    rep.layers, rep.coverage = layer_metrics(tracer.spans)
    units = rep.work.get("active_units", 0)
    rep.layers["attention.units_active"] = sum(units) if isinstance(units, list) else units
    rep.layers["recursion.rounds"] = rep.work.get("rounds", 0)
    return rep
