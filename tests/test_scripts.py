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
    scripts = sorted(path.stem for path in (ROOT / "scripts").glob("*.py"))
    assert scripts == ["src_lines", "stage_peaks"]
    for path in (ROOT / "src").rglob("*.py"):
        assert not [name for name in scripts if name in path.read_text()], path


FIXTURE = {
    "a.py": '''"""Module docstring,
over two lines."""

# a comment-only line
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        over three lines."""
        return os.sep  # a trailing comment keeps its line
''',
    "b.py": '''def f():
    """One line."""

        # an indented comment
    x = 1
    return x
''',
    "notes.txt": "not python\n",
}


def counts(stdout):
    """The rows ``src_lines.py`` prints: name -> (lines, code lines)."""
    return {name: (int(lines), int(code))
            for name, lines, code in (row.split() for row in stdout.splitlines())}


def test_src_lines_counts_a_fixture_package(tmp_path):
    """Lines are every line of a module; code lines leave out blank lines,
    comment-only lines and the lines of module, class and function
    docstrings. Only ``*.py`` files count, in name order, then the total."""
    for name, text in FIXTURE.items():
        (tmp_path / name).write_text(text)
    proc = run_script("src_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [row.split()[0] for row in proc.stdout.splitlines()] == ["a.py", "b.py", "total"]
    assert counts(proc.stdout) == {"a.py": (15, 4), "b.py": (6, 3), "total": (21, 7)}


def test_src_lines_total_is_the_sum_of_the_package_modules():
    proc = run_script("src_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = counts(proc.stdout)
    total = rows.pop("total")
    assert "__init__.py" in rows and "harness.py" in rows
    assert total == tuple(map(sum, zip(*rows.values())))
