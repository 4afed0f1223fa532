"""Benchmark for the noiseattn training and evaluation pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this single process through
``build_config`` -> ``run_experiment`` -> CLI ``eval``, repeating the same
seed for S seconds. Set-up time is measured separately in fresh child
processes. Every repetition is checked (``bench.py``); a failed check
counts against the operations attempted.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics
(``tracer.py``) plus ``trace_overhead_frac``. The last line of output is
the result object; the line before it records the environment, the
generated config, sample counts, artifact digests and work counts.
BLAS runs single-threaded and only one process works at a time.

Timing: every time is reported in reference seconds (``hostspeed.py``):
the wall time of a span (a run, or one eval call), scaled by a fixed
reference kernel timed just before and after it. ``setup_s`` is the median over set-up probes spread
evenly through the run, the other metrics are medians over the run's
repetitions and eval calls; the raw wall times and kernel times are in the
details line. Eval calls after each repetition last a quarter of its run
time. On a shared 2-core x86-64 VM the same code ran up to 1.6x slower
for stretches of seconds to minutes; over sets of five 40-s runs of one
workload the median raw ``run_s`` spread (IQR / median) 8-21% and the
fastest repetition 10-33%, while reference seconds spread 2-6%.
``peak_rss_mb`` is read after the first repetition, so it does not depend
on how many repetitions fit in S seconds.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import bench, hostspeed  # noqa: E402
from perfbench.bench import END_TO_END  # noqa: E402
from perfbench.tracer import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, config_entries  # noqa: E402

SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
SETUP_TIMEOUT_S = 120
EVAL_SHARE = 0.25  # eval calls per repetition: at least 2, for this share of its run_s


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def summary(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def setup_time(workload, seed, out: Path) -> float:
    """One set-up in a fresh child process (``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         workload.name, str(seed), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def guarded_rep(fn, out: Path):
    """Run one repetition; an unexpected exception counts as a failed run."""
    try:
        return fn()
    except Exception as exc:  # boundary: record, count, keep measuring
        traceback.print_exc(file=sys.stderr)
        rep = bench.Rep()
        rep.fail(f"{type(exc).__name__}: {exc}")
        return rep
    finally:
        shutil.rmtree(out, ignore_errors=True)


def plain_run(na, workload, seed, seconds, work: Path):
    setup, setup_wall, reps, reference, peak_rss_mb = [], [], [], None, None

    def probe_setup():
        before = hostspeed.kernel_s()
        setup_wall.append(setup_time(workload, seed, work / f"setup{len(setup)}"))
        setup.append(hostspeed.to_reference(setup_wall[-1], before, hostspeed.kernel_s()))

    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        elapsed = time.perf_counter() - started
        if reps and len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            probe_setup()
        out = work / f"rep{len(reps)}"
        rep = guarded_rep(lambda: bench.run_rep(
            na, workload, seed, out, min_evals=2, eval_share=EVAL_SHARE,
            reference=reference, probe=hostspeed.kernel_s), out)
        if rep.run_ok and reference is None:
            reference = rep.digests
        if peak_rss_mb is None:  # a process that has run the pipeline once
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reps.append(rep)
    while len(setup) < SETUP_PROBES:
        probe_setup()
    good = [r for r in reps if r.run_ok]
    if not good:
        raise RuntimeError(f"no repetition succeeded: {reps[0].errors}")
    # See "Timing" in the module docstring: reference seconds, medians.
    run_s = [hostspeed.to_reference(r.run_s, *r.kernel_s[:2]) for r in good]
    train_rate = [r.sample_passes / t for r, t in zip(good, run_s)]
    eval_rate = [r.test_rows / hostspeed.to_reference(t, *r.kernel_s[i + 1:i + 3])
                 for r in good for i, t in enumerate(r.eval_s)]
    if not eval_rate:
        raise RuntimeError(f"no eval call succeeded: {good[0].errors}")
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run_s),
        "train_samples_per_s": statistics.median(train_rate),
        "eval_samples_per_s": statistics.median(eval_rate),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": summary(setup), "run_s": summary(run_s),
               "train_samples_per_s": summary(train_rate),
               "eval_samples_per_s": summary(eval_rate),
               "wall": {"setup_s": summary(setup_wall),
                        "run_s": summary([r.run_s for r in good]),
                        "eval_s": summary([t for r in good for t in r.eval_s])},
               "kernel_s": summary([k for r in good for k in r.kernel_s])}
    return values, reps, samples


def traced_run(na, workload, seed, seconds, work: Path):
    untraced, traced, reference = [], [], None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        out = work / f"rep{len(untraced) + len(traced)}"
        if len(untraced) <= len(traced):
            rep = guarded_rep(lambda: bench.run_rep(
                na, workload, seed, out, min_evals=1, reference=reference), out)
            if rep.run_ok and reference is None:
                reference = rep.digests
            untraced.append(rep)
        else:
            traced.append(guarded_rep(lambda: bench.traced_rep(
                na, workload, seed, out, reference=reference), out))
    reps = untraced + traced
    base = [r.run_s for r in untraced if r.run_ok]
    with_trace = [r.run_s for r in traced if r.run_ok]
    layers = [r.layers for r in traced if r.run_ok]
    if not base or not layers:
        raise RuntimeError(f"no repetition succeeded: {reps[0].errors}")
    values = {name: statistics.median(m[name] for m in layers)
              for name in PER_LAYER if name != "trace_overhead_frac"}
    values["trace_overhead_frac"] = min(with_trace) / min(base) - 1.0
    samples = {"run_s_untraced": summary(base), "run_s_traced": summary(with_trace),
               "stage_coverage": summary([r.coverage for r in traced if r.run_ok])}
    return values, reps, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    na = bench.load_pipeline(ROOT)
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        run = traced_run if args.trace else plain_run
        values, reps, samples = run(na, workload, args.seed, args.seconds, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    units = PER_LAYER if args.trace else END_TO_END
    attempted = len(reps) + sum(r.eval_attempted for r in reps)
    failed = sum(not r.run_ok for r in reps) + sum(r.eval_failed for r in reps)
    errors = [e for r in reps for e in r.errors]
    good = [r for r in reps if r.run_ok]
    details = {
        "workload": workload.name, "seed": args.seed, "why": workload.why,
        "config": config_entries(workload, args.seed, "<work dir>"),
        "environment": environment(),
        "repetitions": len(reps), "eval_calls": sum(r.eval_attempted for r in reps),
        "samples": samples,
        "test_error": sorted({r.test_error for r in good}),
        "error_ceiling": workload.error_ceiling,
        "digests": [r.digests for r in good],
        "work": [r.work for r in good],
        "errors": errors[:20],
    }
    for name, value in values.items():
        print(f"{workload.name:16s} {name:28s} {value:16.6f} {units[name]}")
    if not args.trace:
        print(f"{workload.name:16s} {'test_error':28s} {good[0].test_error:16.6f} fraction")
    print(f"attempted {attempted} failed {failed} repetitions {len(reps)}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
