"""Command-line interface: subcommands, exit codes, file outputs."""

import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.cli import main
from spinbath.experiments import CONFIG_KEYS, TOOL, config_metadata
from test_experiments import configs

TINY_SINGLE = (
    "mode = single\n"
    "system.epsilon = 2\n"
    "system.delta = 1\n"
    "bath.n_spins = 3\n"
    "bath.eps = 1\n"
    "bath.g = 0.5\n"
    "bath.chi = 0.1\n"
    "thermal.beta = 1\n"
    "grid.t_end = 4\n"
    "grid.n_points = 5\n"
)


TINY_PAIR = (
    "mode = two_qubit\n"
    "system.eps1 = 1\n"
    "system.eps2 = 2\n"
    "system.delta1 = 4\n"
    "system.delta2 = 1\n"
    "bath.n_spins = 3\n"
    "bath.eps = 1\n"
    "bath.g = 0.5\n"
    "thermal.beta = 1\n"
    "grid.n_points = 5\n"
)


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "spinbath.cli", *args],
                          capture_output=True, text=True, **kwargs)


class TestListPresets:
    def test_lists_all(self):
        proc = run_cli("list-presets")
        assert proc.returncode == 0
        names = proc.stdout.split()
        assert names[0] == "fig1" and "fig19" in names and len(names) == 19


class TestRun:
    def test_stdout_when_no_output_path(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE)
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert "t,px_uncorrelated,px_correlated" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 6

    def test_out_flag_writes_file(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE)
        out = tmp_path / "result.csv"
        proc = run_cli("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 0
        assert out.exists()
        assert "wrote" in proc.stdout

    def test_output_key_in_config(self, tmp_path):
        out = tmp_path / "from_config.csv"
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE + f"output = {out}\n")
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 0
        assert out.exists()

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_SINGLE + "mystery.key = 1\n")
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 2
        assert "mystery.key" in proc.stderr

    def test_non_finite_angle_exits_2(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_SINGLE + "state.theta = inf\n")
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: state.theta must be finite")

    @pytest.mark.parametrize("amplitudes", ["1e308,0,1e308,0,0,0,0,0", "1e-320,0,0,0,0,0,0,0"],
                             ids=["huge", "subnormal"])
    def test_extreme_amplitudes_run(self, tmp_path, amplitudes):
        config = tmp_path / "pair.ini"
        config.write_text(TINY_PAIR + f"state.amplitudes = {amplitudes}\n")
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize("text, message", [
        (TINY_SINGLE.replace("grid.n_points = 5", "grid.n_points = 10000000000000"),
         "error: grid.n_points must be in [2, 1000000]"),
        # overflowing parameters, in each mode
        (TINY_SINGLE.replace("system.epsilon = 2", "system.epsilon = 1e308")
         .replace("bath.g = 0.5", "bath.g = 1e308"), "error: qubit splitting"),
        (TINY_PAIR.replace("system.eps1 = 1", "system.eps1 = 1e308")
         .replace("bath.g = 0.5", "bath.g = 1e308"),
         "error: pair Hamiltonian"),
        (TINY_PAIR + "system.lambda = 1e308\n", "error: pair energy gap"),
        (TINY_SINGLE.replace("grid.t_end = 4", "grid.t_start = -1e308\ngrid.t_end = 1e308"),
         "error: grid.t_start, grid.t_end and their span must be finite"),
        (TINY_SINGLE.replace("bath.eps = 1\nbath.g = 0.5\nbath.chi = 0.1\n",
                             "bath.random.seed = 1\n" + "".join(
                                 f"bath.random.{name}.mean = 1\nbath.random.{name}.std = {std}\n"
                                 for name, std in (("g", -1), ("eps", 0.1), ("chi", 0.1)))),
         "error: bath.random.g.std must be >= 0, got -1.0"),
        # explicit lists of the wrong length, named by their config keys
        (TINY_SINGLE.replace("bath.n_spins = 3\nbath.eps = 1\nbath.g = 0.5\nbath.chi = 0.1\n",
                             "bath.n_spins = 4\nbath.eps_list = 1,1,1\n"
                             "bath.g_list = 1,2,1,1\nbath.chi_list = 0,0,0\n"),
         "error: bath.eps_list must be a list of 4 numbers for 4 spins, open boundary, got 3"),
        (TINY_SINGLE.replace("bath.n_spins = 3\nbath.eps = 1\nbath.g = 0.5\nbath.chi = 0.1\n",
                             "bath.n_spins = 4\nbath.boundary = periodic\n"
                             "bath.eps_list = 1,1,1,1\nbath.g_list = 1,2,1,1\n"
                             "bath.chi_list = 0,0,0\n"),
         "error: bath.chi_list must be a list of 4 numbers for 4 spins, periodic boundary, "
         "got 3"),
    ], ids=["n_points_cap", "single_overflow", "pair_overflow", "pair_gap_overflow",
            "grid_overflow", "negative_std", "short_eps_list", "short_periodic_chi_list"])
    def test_out_of_range_exits_2_with_one_line(self, tmp_path, text, message):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), proc.stderr

    def test_backend_key_exits_2(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text(TINY_SINGLE + "backend = collapse\n")
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown key 'backend' in config\n"

    @pytest.mark.parametrize("bath", [
        "bath.n_spins = 50\nbath.eps = 1\nbath.g = 1\n",
        "bath.n_spins = 3\nbath.eps_list = 1,1,1\nbath.g_list = 1,2,1\nbath.chi_list = 0,0\n",
    ], ids=["uniform_n50", "ragged_explicit"])
    def test_bath_without_backend_runs(self, tmp_path, bath):
        config = tmp_path / "bath.ini"
        config.write_text("mode = single\nsystem.epsilon = 2\nsystem.delta = 1\n"
                          f"{bath}thermal.beta = 1\n")
        proc = run_cli("run", "--config", str(config))
        assert proc.returncode == 0 and proc.stderr == ""

    def test_csv_replays_byte_identically(self, tmp_path):
        first, again = tmp_path / "fig11.csv", tmp_path / "again.csv"
        assert run_cli("preset", "fig11", "--seed", "7", "--out", str(first)).returncode == 0
        proc = run_cli("run", "--config", str(first), "--out", str(again))
        assert proc.returncode == 0
        assert again.read_bytes() == first.read_bytes()

    def test_plot_script_companion(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE)
        out = tmp_path / "result.csv"
        proc = run_cli("run", "--config", str(config), "--out", str(out), "--plot-script")
        assert proc.returncode == 0
        script = tmp_path / "result_plot.py"
        assert script.exists()
        assert "matplotlib" in script.read_text()


# texts a fuzzed key may take: numbers, non-finite values, lists, garbage
# and every word some key accepts
FUZZ_TEXTS = st.one_of(
    st.integers(min_value=-3, max_value=6).map(str),
    st.floats(min_value=-10.0, max_value=10.0).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "x", "1,2", "0,0,0,0,0,0,0,0", TOOL,
                     "spinbath 0.0.0", "single", "two_qubit", "open", "periodic",
                     "bell", "product", "both", "correlated",
                     "uncorrelated", "fig4"]),
)
FUZZ_KEYS = st.sampled_from(sorted({key.name for key in CONFIG_KEYS} - {"output"}
                                   | {"bogus.key"}))


class TestFuzzedConfigs:
    @given(configs(), st.lists(FUZZ_KEYS, max_size=2),
           st.lists(st.tuples(FUZZ_KEYS, FUZZ_TEXTS), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_every_outcome_is_an_exit_code(self, config, dropped, edits):
        keys = dict(config_metadata(config))
        for name in dropped:
            keys.pop(name, None)
        keys.update(edits)
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "fuzz.ini"
            path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["run", "--config", str(path)])
        assert code in (0, 1, 2)
        lines = stderr.getvalue().splitlines()
        assert "Traceback" not in stderr.getvalue()
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: ")


class TestPreset:
    def test_writes_named_csv(self, tmp_path):
        out = tmp_path / "fig7.csv"
        proc = run_cli("preset", "fig7", "--out", str(out))
        assert proc.returncode == 0
        body = out.read_text()
        assert "# preset = fig7" in body
        assert body.count("\n") > 400

    def test_unknown_preset_exits_2(self):
        proc = run_cli("preset", "fig99")
        assert proc.returncode == 2
        assert "unknown preset" in proc.stderr

    def test_unwritable_output_exits_2(self, tmp_path):
        (tmp_path / "taken_plot.py").mkdir()
        for out in (tmp_path / "missing" / "x.csv", tmp_path, tmp_path / "taken.csv"):
            proc = run_cli("preset", "fig1", "--out", str(out), "--plot-script")
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: cannot write")

    def test_seed_on_fixed_preset_exits_2(self, tmp_path):
        proc = run_cli("preset", "fig1", "--seed", "5", "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "--seed" in proc.stderr


class TestOracleCheckCommand:
    def test_pass_exit_zero(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE)
        proc = run_cli("oracle-check", str(config), "--n", "3")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_corruption_hook_exit_one(self, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE)
        proc = run_cli("oracle-check", str(config), "--n", "3",
                       "--analytic-beta-skew", "1e-5")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_unknown_target_exits_2(self):
        proc = run_cli("oracle-check", "no_such_thing", "--n", "3")
        assert proc.returncode == 2

    def test_negative_bath_size_exits_2_with_one_line(self):
        proc = run_cli("oracle-check", "fig4", "--n=-5")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: oracle bath size"), proc.stderr


class TestInProcessEntry:
    def test_main_returns_int(self, tmp_path, capsys):
        config = tmp_path / "tiny.ini"
        config.write_text(TINY_SINGLE)
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "px_uncorrelated" in out

    def test_main_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.ini"
        code = main(["run", "--config", str(missing)])
        assert code != 0
