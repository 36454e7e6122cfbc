#!/usr/bin/env python3
"""Compare two directories of preset CSVs, as scripts/run_figures.py writes
them, and print one line per file: "identical" when the tables match byte
for byte, else the largest absolute difference over them. When the config
headers differ, the line first names each key added, removed or changed.

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


def read_table(path: pathlib.Path) -> tuple[dict[str, str], list[str], list[str]]:
    """The config header as key -> value, the column names and the row lines
    of a CSV."""
    lines = path.read_text().splitlines()
    header = dict(line[2:].partition(" = ")[::2] for line in lines if line.startswith("#"))
    rows = [line for line in lines if not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path} has no column line")
    return header, rows[0].split(","), rows[1:]


def header_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """'added k', 'removed k' or 'changed k' for each key whose value differs,
    in the new header's order, then the removed keys in the old one's."""
    changes = [f"{'changed' if key in old else 'added'} {key}"
               for key, value in new.items() if old.get(key) != value]
    return changes + [f"removed {key}" for key in old if key not in new]


def compare(old: pathlib.Path, new: pathlib.Path) -> tuple[list[str], str]:
    """The header changes of two CSVs (see header_changes) and how their
    tables differ: 'identical', or their max |delta|; ValueError when the
    tables differ in their columns or their row count."""
    if old.read_bytes() == new.read_bytes():
        return [], "identical"
    old_header, old_columns, old_rows = read_table(old)
    new_header, new_columns, new_rows = read_table(new)
    changes = header_changes(old_header, new_header)
    if old_columns != new_columns:
        raise ValueError(f"columns differ: {old_columns} vs {new_columns}")
    if len(old_rows) != len(new_rows):
        raise ValueError(f"row counts differ: {len(old_rows)} vs {len(new_rows)}")
    if old_rows == new_rows:
        return changes, "identical"
    old_values, new_values = (np.array([row.split(",") for row in rows], dtype=float)
                              for rows in (old_rows, new_rows))
    return changes, f"max |delta| {np.abs(new_values - old_values).max():.2e}"


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
            changes, table = compare(args.old_dir / name, args.new_dir / name)
        except ValueError as exc:
            print(f"{stem}: {exc}", file=sys.stderr)
            code = 1
            continue
        if changes:
            print(f"{stem}: config header {', '.join(changes)}; table {table}",
                  file=sys.stderr)
            code = 1
        else:
            print(f"{stem}: {table}")
    return code


if __name__ == "__main__":
    sys.exit(main())
