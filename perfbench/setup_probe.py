"""Measure one set-up in a fresh process: import noiseattn, build the
workload config, and one ``resolve_data(cfg, out)`` call.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR
Prints ``{"setup_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.bench import load_pipeline  # noqa: E402  (needs ROOT on sys.path)
from perfbench.workloads import WORKLOADS, config_entries  # noqa: E402


def main(argv) -> int:
    workload, seed, out = WORKLOADS[argv[0]], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    entries = config_entries(workload, seed, out)
    started = time.perf_counter()
    na = load_pipeline(ROOT)
    cfg = na.build_config(entries)
    na.resolve_data(cfg, out)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
