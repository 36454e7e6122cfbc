"""Every preset against its committed CSV in tests/golden/.

The golden files are the CSVs that scripts/run_figures.py writes, gzipped.
A change that moves a preset on purpose regenerates them and lists each
preset's move (scripts/compare_presets.py old new) in CHANGES.md:

    python scripts/run_figures.py --out-dir results
    for f in results/*.csv; do gzip -n -9 -c "$f" > tests/golden/$(basename "$f").gz; done

The config header, the columns and the row count must match exactly. The
values must agree within GOLDEN_TOL: every value is a Bloch component, a
concurrence or a time of at most 20, and sin, cos, tan and exp may round
differently by a few ulps across platforms and numpy builds, which moves
the sums by about 1e-14 (the largest deliberate move so far, summing the
sweep's spectra by BLAS calls, was 4.5e-14 at fig18; a change of LAPACK
routine for the pair moved them by 3.7e-14).
"""

import gzip
from pathlib import Path

import numpy as np
import pytest

from spinbath.experiments import list_presets, preset, run

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TOL = 1e-12


def split_table(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """The config header lines, the column names and the values of a CSV."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    values = np.array([row.split(",") for row in rows[1:]], dtype=float)
    return header, rows[0].split(","), values


def test_every_preset_has_a_golden_file():
    assert sorted(path.name for path in GOLDEN.glob("*.csv.gz")) == sorted(
        f"{name}.csv.gz" for name in list_presets())


@pytest.mark.parametrize("name", list_presets())
def test_preset_matches_golden(name):
    golden = gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes()).decode()
    header, columns, expected = split_table(golden)
    new_header, new_columns, values = split_table(run(preset(name)).render())
    assert new_header == header, f"{name}: config header differs from the golden file"
    assert new_columns == columns, f"{name}: columns {new_columns} differ from {columns}"
    assert values.shape == expected.shape, f"{name}: {len(values)} rows, golden {len(expected)}"
    deviation = float(np.abs(values - expected).max())
    assert deviation <= GOLDEN_TOL, f"{name}: largest deviation {deviation:.3e} from golden"
