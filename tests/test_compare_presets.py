"""scripts/compare_presets.py: per-preset deviations between two CSV sets."""

import importlib.util
from pathlib import Path

import pytest

from spinbath.experiments import preset, run

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_presets.py"
spec = importlib.util.spec_from_file_location("compare_presets", SCRIPT)
compare_presets = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_presets)


@pytest.fixture
def pair_of_dirs(tmp_path):
    """Two directories holding the same fig4 and fig13 CSVs."""
    old, new = tmp_path / "old", tmp_path / "new"
    for directory in (old, new):
        directory.mkdir()
    for name in ("fig4", "fig13"):
        text = run(preset(name)).render()
        (old / f"{name}.csv").write_text(text)
        (new / f"{name}.csv").write_text(text)
    return old, new


def test_identical_pair(pair_of_dirs, capsys):
    assert compare_presets.main([str(d) for d in pair_of_dirs]) == 0
    assert capsys.readouterr().out == "fig4: identical\nfig13: identical\n"


def test_perturbed_pair(pair_of_dirs, capsys):
    old, new = pair_of_dirs
    path = new / "fig4.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines.index("t,px_uncorrelated,px_correlated\n") + 1
    assert lines[row] == "0,1,1\n"
    lines[row] = "0,1,1.00000000000025\n"
    path.write_text("".join(lines))
    assert compare_presets.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "fig4: max |delta| 2.50e-13\nfig13: identical\n"


def test_missing_file_and_mismatched_rows_exit_1(pair_of_dirs, capsys):
    old, new = pair_of_dirs
    (new / "fig4.csv").unlink()
    path = new / "fig13.csv"
    path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
    assert compare_presets.main([str(old), str(new)]) == 1
    err = capsys.readouterr().err
    assert f"fig4: missing from {new}" in err
    assert "fig13: row counts differ: 400 vs 399" in err


def test_header_changes_are_named_with_the_table_deviation(pair_of_dirs, capsys):
    old, new = pair_of_dirs
    path = new / "fig4.csv"
    text = path.read_text().replace("# thermal.beta = 1\n", "# thermal.beta = 2\n")
    path.write_text(text.replace("# mode = single\n", "# added.key = 1\n")
                    .replace("\n0,1,1\n", "\n0,1,1.00000000000025\n"))
    (new / "fig13.csv").write_text((old / "fig13.csv").read_text()
                                   .replace("# series = both\n", ""))
    assert compare_presets.main([str(old), str(new)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fig4: config header added added.key, changed thermal.beta, removed mode; "
        "table max |delta| 2.50e-13\n"
        "fig13: config header removed series; table identical\n")
