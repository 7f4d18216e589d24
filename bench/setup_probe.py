"""One set-up measurement in a fresh interpreter; prints seconds on stdout.

Times importing uavirs, generating the workload's instance files and loading
each one, which is what a user pays before the first solve starts.

usage: python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR
"""

import sys
import time

started = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import uavirs  # noqa: E402

import instances  # noqa: E402

paths = instances.generate(ROOT, sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
for path in paths:
    uavirs.load_scenario(path)
print(repr(time.perf_counter() - started))
