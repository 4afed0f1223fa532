"""The measuring scripts under ``scripts/`` run from a checkout, and the
package imports none of them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_stage_peaks_prints_a_line_after_each_stage():
    """On ``mlp_small_batch`` it prints the config line, the data stage,
    the run's three evaluations and two teacher passes and two CLI
    ``eval`` calls, in the order they run; the peak RSS never falls."""
    proc = run_script("stage_peaks.py", "mlp_small_batch", "5")
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    assert head.split() == ["after", "peak_rss_mb", "minor_faults"]
    rows = [line.rsplit(maxsplit=2) for line in lines]
    assert [label for label, _, _ in rows] == [
        "config", "data stage 1", "run evaluation 1", "teacher pass 1", "run evaluation 2",
        "teacher pass 2", "run evaluation 3", "CLI eval 1", "CLI eval 2"]
    peaks = [float(peak) for _, peak, _ in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert all(int(faults) >= 0 for _, _, faults in rows)


def test_stage_peaks_refuses_an_unknown_workload():
    proc = run_script("stage_peaks.py", "no_such_workload", "5")
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("usage: ")


def test_the_package_imports_no_script():
    for path in (ROOT / "src").rglob("*.py"):
        assert "stage_peaks" not in path.read_text(), path
