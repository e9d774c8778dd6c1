"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a source checkout of opasim.  The last line printed
is one JSON object with the run's verdict and metrics; see README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("exact-route", "meanfield-ensemble", "single-path")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; seed "
                             f"{HELD_OUT_SEED} is held out to confirm claims)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer spans instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes and one set-up repeat, for tests")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "opasim" / "cli.py").is_file():
        print(f"perfbench: no opasim sources under {root / 'src'}", file=sys.stderr)
        return 2

    # One single-threaded client.  Multi-threaded OpenBLAS busy-waits, and
    # made ops up to 25x slower on a 2-CPU host whenever another process
    # shared the CPUs.
    # BLAS reads its thread count when numpy loads, so set it before that.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))

    import closedloop

    return closedloop.run(args, root, nproc)


if __name__ == "__main__":
    sys.exit(main())
