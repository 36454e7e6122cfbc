#!/usr/bin/env python3
"""Run one spinbath benchmark workload and print its metrics.

From the repository root:

    python3 benchmark/run.py --workload figures --seed 0 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The package is
imported from ./src of the same checkout; the run exits with code 2 if it
is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the random-bath draws")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time (whole cycles of ops)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and baths, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up, print the monotonic clock, exit "
                             "(used to time set-up in fresh processes)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "spinbath" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'spinbath'} not found", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [str(SRC), str(HERE)]

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        bench.setup(args.workload, args.seed, args.smoke)
        print(repr(time.monotonic()))
        return 0
    measure = bench.measure_traced if args.trace else bench.measure
    result = measure(args.workload, args.seed, args.seconds, args.smoke)
    print(bench.report(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
