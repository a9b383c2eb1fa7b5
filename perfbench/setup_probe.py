"""Set-up probe, run in a fresh interpreter by run.py:

    python3 perfbench/setup_probe.py SRC_DIR

Times `import qrob.cli` from SRC_DIR, the way every `qrob` command starts,
with the calibration kernel timed five times before and five times after
it, and prints the import time and then the kernel times, in seconds.
"""

import sys
import time

from calibration import kernel_seconds

before = [kernel_seconds() for _ in range(5)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qrob.cli  # noqa: E402,F401

import_s = time.perf_counter() - start
print(import_s, *before, *(kernel_seconds() for _ in range(5)))
