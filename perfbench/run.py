"""Benchmark entry point: one run of one workload in a fresh child process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-clusters --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout.  The child process
(``child.py``) is started with BLAS and OpenMP limited to one thread and a
fixed hash seed, so each run measures the program alone and reports its own
peak RSS.  Its output is passed through; the last line is the JSON result.
Exit code: the child's, or 2 when the checkout holds no ``src/mcsketch``
and 3 when the child overran its time limit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "mcsketch" / "__init__.py").is_file():
        print(f"no package at {src / 'mcsketch'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    child = Path(__file__).resolve().with_name("child.py")
    try:
        proc = subprocess.run(
            [sys.executable, str(child), *sys.argv[1:]], env=env, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
