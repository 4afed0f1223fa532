"""Print the peak RSS and minor faults of one workload's run, stage by stage.

    python scripts/stage_peaks.py WORKLOAD SEED

Builds the config of WORKLOAD (a name in ``perfbench/workloads.py``) at
SEED, runs it through ``run_experiment`` in a temporary directory, then
scores the run's final snapshot on its ``test.nld`` by CLI ``eval`` twice,
all in this one process, with BLAS on one thread as the benchmark runs it.
A line is printed after the data stage, after each test evaluation (those
in the run and each CLI ``eval``) and after each teacher pass
(``recursion.snapshot_probs``): the process's peak RSS so far
(``ru_maxrss``), in MB, and the minor page faults since the line before.
The first line is taken once the config is built, before the run.

The probes wrap the package's functions from outside; the package does
not import this script.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import noiseattn  # noqa: E402
import noiseattn.cli  # noqa: E402
import noiseattn.harness  # noqa: E402
import noiseattn.recursion  # noqa: E402
from perfbench.workloads import WORKLOADS, config_entries  # noqa: E402

EVAL_CALLS = 2


class Probe:
    """Prints one line per call to the stdout it was made with (CLI ``eval``
    runs with its own redirected): the peak RSS and the minor faults since
    the line before."""

    def __init__(self):
        self.faults, self.out = 0, sys.stdout
        print(f"{'after':<24} {'peak_rss_mb':>12} {'minor_faults':>13}", file=self.out)

    def __call__(self, label):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"{label:<24} {usage.ru_maxrss / 1024:>12.1f} "
              f"{usage.ru_minflt - self.faults:>13}", file=self.out, flush=True)
        self.faults = usage.ru_minflt


def probed(module, name, probe, label):
    """Replace ``module.name`` by a wrapper that calls ``probe`` with
    ``label`` and its call count after each return."""
    fn, calls = getattr(module, name), [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls[0] += 1
        probe(f"{label} {calls[0]}")
        return result

    setattr(module, name, wrapper)


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in WORKLOADS:
        print(f"usage: {argv[0]} WORKLOAD SEED, WORKLOAD one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload, seed = WORKLOADS[argv[1]], int(argv[2])
    with tempfile.TemporaryDirectory(prefix="stage_peaks_") as tmp:
        out = Path(tmp) / "run"
        cfg = noiseattn.build_config(config_entries(workload, seed, out))
        probe = Probe()
        probe("config")
        probed(noiseattn.harness, "resolve_data", probe, "data stage")
        probed(noiseattn.harness, "evaluate", probe, "run evaluation")
        probed(noiseattn.recursion, "snapshot_probs", probe, "teacher pass")
        noiseattn.run_experiment(cfg)
        probed(noiseattn.cli, "evaluate", probe, "CLI eval")
        for _ in range(EVAL_CALLS):
            with contextlib.redirect_stdout(io.StringIO()):
                code = noiseattn.cli.main(["eval", "--snapshot", str(out / "snapshot_final.nam"),
                                           "--data", str(out / "test.nld")])
            if code:
                print(f"CLI eval exited with {code}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
