#!/usr/bin/env python3
"""Compare two directories of preset CSVs, as scripts/run_figures.py writes
them, and print one line per file: "identical" when the bytes match, else
the largest absolute difference over the table.

Exits 1 when a CSV is in one directory only, or when two tables differ in
their config header, their columns or their row count.

Example:
    python scripts/run_figures.py --out-dir old
    ... change the code ...
    python scripts/run_figures.py --out-dir new
    python scripts/compare_presets.py old new
"""

import argparse
import pathlib
import sys

import numpy as np


def read_table(path: pathlib.Path) -> tuple[list[str], list[str], np.ndarray]:
    """The config header lines, the column names and the values of a CSV."""
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path} has no column line")
    return header, rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)


def compare(old: pathlib.Path, new: pathlib.Path) -> str:
    """'identical', or the max |delta| of two tables; ValueError when they
    do not describe the same table."""
    if old.read_bytes() == new.read_bytes():
        return "identical"
    old_header, old_columns, old_values = read_table(old)
    new_header, new_columns, new_values = read_table(new)
    if old_header != new_header:
        raise ValueError("config headers differ")
    if old_columns != new_columns:
        raise ValueError(f"columns differ: {old_columns} vs {new_columns}")
    if old_values.shape != new_values.shape:
        raise ValueError(f"row counts differ: {len(old_values)} vs {len(new_values)}")
    return f"max |delta| {np.abs(new_values - old_values).max(initial=0.0):.2e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_dir", type=pathlib.Path)
    parser.add_argument("new_dir", type=pathlib.Path)
    args = parser.parse_args(argv)

    old_names = {path.name for path in args.old_dir.glob("*.csv")}
    new_names = {path.name for path in args.new_dir.glob("*.csv")}
    if not old_names | new_names:
        print(f"no CSV files in {args.old_dir} or {args.new_dir}", file=sys.stderr)
        return 1
    code = 0
    # fig2 before fig10
    for name in sorted(old_names | new_names, key=lambda n: (len(n), n)):
        stem = name.removesuffix(".csv")
        if name not in old_names or name not in new_names:
            missing = args.old_dir if name not in old_names else args.new_dir
            print(f"{stem}: missing from {missing}", file=sys.stderr)
            code = 1
            continue
        try:
            print(f"{stem}: {compare(args.old_dir / name, args.new_dir / name)}")
        except ValueError as exc:
            print(f"{stem}: {exc}", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
