#!/usr/bin/env python3
"""Regenerate references.json: the trajectories every figures and
large_bath op must reproduce within ORACLE_TOLERANCE.

Run from the repository root at a commit whose outputs are trusted:

    python3 benchmark/make_references.py

Seeded ops are stored for each seed in workloads.REFERENCE_SEEDS; other
seeds get the validity and determinism checks only.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spinbath import run  # noqa: E402
from workloads import REFERENCE_SEEDS, REFERENCES_PATH, WORKLOADS, table_record  # noqa: E402


def main() -> int:
    references = {}
    for workload in ("figures", "large_bath"):
        for seed in REFERENCE_SEEDS:
            for op in WORKLOADS[workload].ops(seed):
                key = op.reference_key(seed)
                if key not in references:
                    references[key] = table_record(run(op.config))
                    print(key, flush=True)
    with open(REFERENCES_PATH, "w") as handle:
        json.dump(references, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
