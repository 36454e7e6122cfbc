"""Command-line front end.

    spinbath run --config FILE_OR_CSV [--out PATH] [--plot-script]
    spinbath preset NAME [--out PATH] [--seed U64] [--plot-script]
    spinbath oracle-check NAME_OR_CONFIG --n N [--analytic-beta-skew X]
    spinbath list-presets

Exit codes: 0 success, 1 failed check or runtime numeric failure, 2 bad
usage or parameters.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CapacityError, ParameterError, SpinbathError, UsageError
from .experiments import (ExperimentConfig, list_presets, oracle_check,
                          parse_config_file, preset, run, write_text)

_PLOT_TEMPLATE = '''"""Plot companion for {csv_name}; run with a matplotlib install."""
import numpy as np
import matplotlib.pyplot as plt

data = np.genfromtxt({csv_name!r}, delimiter=",", names=True, comments="#")
names = data.dtype.names
t = data[names[0]]
for column in names[1:]:
    plt.plot(t, data[column], label=column.replace("_", " "))
plt.xlabel("t")
plt.ylabel({ylabel!r})
plt.legend()
plt.tight_layout()
plt.savefig({png_name!r}, dpi=160)
print("wrote", {png_name!r})
'''


def _write_outputs(config: ExperimentConfig, out_path: str, plot_script: bool) -> None:
    table = run(config)
    table.write_csv(out_path)
    print(f"wrote {out_path} ({table.rows.shape[0]} rows)")
    if plot_script:
        stem = out_path[:-4] if out_path.endswith(".csv") else out_path
        script_path = stem + "_plot.py"
        ylabel = "p_x" if config.mode == "single" else "concurrence"
        write_text(script_path, _PLOT_TEMPLATE.format(
            csv_name=os.path.basename(out_path), ylabel=ylabel,
            png_name=os.path.basename(stem) + ".png"))
        print(f"wrote {script_path}")


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    out_path = args.out or config.output
    if out_path is None:
        table = run(config)
        sys.stdout.write(table.render())
        return 0
    _write_outputs(config, out_path, args.plot_script)
    return 0


def _cmd_preset(args) -> int:
    config = preset(args.name, seed=args.seed)
    out_path = args.out or f"{args.name}.csv"
    _write_outputs(config, out_path, args.plot_script)
    return 0


def _cmd_oracle_check(args) -> int:
    if args.name_or_config in list_presets():
        config = preset(args.name_or_config)
    elif os.path.exists(args.name_or_config):
        config = parse_config_file(args.name_or_config)
    else:
        raise UsageError(
            f"{args.name_or_config!r} is neither a preset name nor a config file"
        )
    report = oracle_check(config, args.n, analytic_beta_skew=args.analytic_beta_skew)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_list_presets(_args) -> int:
    for name in list_presets():
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Exact dynamics of one or two qubits coupled to a finite spin bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file and write its CSV")
    p_run.add_argument("--config", required=True,
                       help="path to a key = value config file, or to a CSV this tool "
                            "wrote, which replays its run")
    p_run.add_argument("--out", help="CSV path (overrides the config's output key)")
    p_run.add_argument("--plot-script", action="store_true",
                       help="also write a small matplotlib companion script")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named figure preset")
    p_preset.add_argument("name", help="preset name, see list-presets")
    p_preset.add_argument("--out", help="CSV path (default NAME.csv)")
    p_preset.add_argument("--seed", type=int, help="override the seed of a random-bath preset")
    p_preset.add_argument("--plot-script", action="store_true",
                          help="also write a small matplotlib companion script")
    p_preset.set_defaults(func=_cmd_preset)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="cross-check the analytic path against brute-force evolution at small N")
    p_oracle.add_argument("name_or_config", help="preset name or config file path")
    p_oracle.add_argument("--n", type=int, required=True,
                          help="bath size for the check (kept small; full state is built)")
    p_oracle.add_argument("--analytic-beta-skew", type=float, default=0.0,
                          help="testing hook: fractional beta distortion applied to the "
                               "analytic side only, to demonstrate the check trips")
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_list = sub.add_parser("list-presets", help="list available preset names")
    p_list.set_defaults(func=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParameterError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
