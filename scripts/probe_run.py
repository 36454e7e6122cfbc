#!/usr/bin/env python3
"""Time one enumerate run() and read the process's peak RSS.

The run takes fig12's Gaussian bath, resized to N spins, on a 40-point
grid: "single" is the one-qubit run of fig12, "pair" the two-qubit run of
fig13 on that bath. Prints one line with the run's wall seconds and the
process's peak resident set size (ru_maxrss), so each case belongs in a
fresh process:

    python scripts/probe_run.py single 20
    python scripts/probe_run.py pair 16 --src ../base/src

--src picks the package to measure (default: this checkout's src), so one
script compares two checkouts.
"""

import argparse
import pathlib
import resource
import sys
import time
from dataclasses import replace

N_POINTS = 40


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("single", "pair"))
    parser.add_argument("n_spins", type=int)
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the spinbath package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from spinbath.experiments import preset, run

    config = preset("fig12" if args.mode == "single" else "fig13")
    config = replace(config, bath=preset("fig12").bath.resized(args.n_spins),
                     grid=replace(config.grid, n_points=N_POINTS))
    started = time.perf_counter()
    run(config)
    seconds = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.mode} N={args.n_spins} t{N_POINTS}: {seconds:.3f} s, "
          f"peak RSS {peak_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
