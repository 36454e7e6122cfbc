#!/usr/bin/env python3
"""Run every figure preset (or a chosen subset) and collect the CSVs.

Examples:
    python scripts/run_figures.py --out-dir results
    python scripts/run_figures.py --out-dir results --only fig4 fig16
    python scripts/run_figures.py --out-dir results --plot-scripts
"""

import argparse
import pathlib
import sys
import time

# the package of this checkout, ahead of any installed copy
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spinbath.cli import main as cli_main
from spinbath.experiments import list_presets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", default="results",
                        help="directory for the CSV files (default: results)")
    parser.add_argument("--only", nargs="*", metavar="NAME",
                        help="subset of preset names (default: all)")
    parser.add_argument("--plot-scripts", action="store_true",
                        help="write a matplotlib companion script next to each CSV")
    args = parser.parse_args(argv)

    names = args.only if args.only else list_presets()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in names:
        target = out_dir / f"{name}.csv"
        cli_args = ["preset", name, "--out", str(target)]
        if args.plot_scripts:
            cli_args.append("--plot-script")
        started = time.perf_counter()
        code = cli_main(cli_args)
        if code != 0:
            print(f"{name}: failed with exit code {code}", file=sys.stderr)
            return code
        print(f"{name}: done in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
