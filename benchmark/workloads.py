"""Benchmark workloads, op execution and the output gate.

An op is one public-API call a user makes: ``run(config)`` followed by
``ResultTable.render()``, or ``oracle_check(config, n)``. A workload is a
fixed cycle of ops; the benchmark repeats whole cycles, so every run holds
each op kind equally often and percentiles over op times compare between
runs.

Grids are thinner than the presets' 400 points (same time span, fewer
points) so that one run of a few tens of seconds repeats every op kind,
for the determinism check and for op-time percentiles. ``figures`` keeps
enough points that the time sweep stays nearly all of its work.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spinbath import collapse_classes, oracle_check, preset, run
from spinbath.configspace import Backend
from spinbath.experiments import (ORACLE_TOLERANCE, BathSpec, ExperimentConfig,
                                  OracleReport, ResultTable)

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"
# seeds whose seeded ops have stored reference trajectories
REFERENCE_SEEDS = range(20)
# rounding slack on |p_x| <= 1 and C <= 1; the package's concurrence of a
# Bell state reads 1 + 2.2e-16
VALIDITY_SLACK = 1e-12
SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class OpSpec:
    """One op kind of a workload, fully built for a given seed."""

    name: str
    config: ExperimentConfig
    seeded: bool = False  # inputs depend on --seed
    oracle_n: int | None = None  # oracle cross-check at this bath size when set
    analytic_beta_skew: float = 0.0  # oracle_check's corruption hook (gate test)

    @property
    def is_oracle(self) -> bool:
        return self.oracle_n is not None

    @property
    def points(self) -> int:
        """Trajectory points delivered (or cross-checked) by one op."""
        return self.config.grid.n_points * len(self.config.series)

    def reference_key(self, seed: int) -> str:
        return f"{self.name}/seed={seed}" if self.seeded else self.name

    def bath_items(self) -> int:
        """Configurations summed per series, counted from the input."""
        if self.is_oracle:
            return 1 << self.oracle_n
        bath = self.config.bath
        if self.config.backend is Backend.COLLAPSE:
            return len(collapse_classes(bath.n_spins, bath.boundary))
        return 1 << bath.n_spins


def _op(label: str, config: ExperimentConfig, n_points: int, **kwargs) -> OpSpec:
    """The op on config's time span thinned to n_points; the name carries
    the grid size, so references never match another grid."""
    thinned = replace(config, grid=replace(config.grid, n_points=n_points))
    return OpSpec(f"{label}_t{n_points}", thinned, **kwargs)


def _figures(seed: int, smoke: bool) -> list[OpSpec]:
    points = 3 if smoke else 40
    return [
        _op("fig4", preset("fig4"), points),
        _op("fig11", preset("fig11", seed=seed), points, seeded=True),
        _op("fig13", preset("fig13"), points),
        _op("fig18", preset("fig18"), points),
    ]


def _large_bath(seed: int, smoke: bool) -> list[OpSpec]:
    points = 3 if smoke else 4
    n_enum, n_single, n_pair = (8, 20, 10) if smoke else (16, 200, 100)
    fig12 = preset("fig12", seed=seed)
    enum = replace(fig12, bath=replace(fig12.bath, n_spins=n_enum), preset_name=None)
    chain = BathSpec(n_spins=n_single, kind="uniform", eps=1.0, g=1.0, chi=0.1)
    single = replace(preset("fig4"), bath=chain, preset_name=None)
    pair_chain = replace(chain, n_spins=n_pair)
    pair = replace(preset("fig18"), bath=pair_chain, preset_name=None)
    return [
        _op(f"enumerate_n{n_enum}", enum, points, seeded=True),
        _op(f"collapse_n{n_single}", single, points),
        _op(f"pair_lambda3_n{n_pair}", pair, points),
    ]


def _oracle(seed: int, smoke: bool) -> list[OpSpec]:
    points = 3 if smoke else 40
    sizes = (("fig4", 3), ("fig13", 2), ("fig18", 2)) if smoke else \
        (("fig4", 6), ("fig13", 5), ("fig18", 5))
    return [_op(f"{name}_n{n}", preset(name), points, oracle_n=n) for name, n in sizes]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list[OpSpec]]  # (seed, smoke) -> ops of one cycle
    # whole cycles every run makes before --seconds may end it: at least two,
    # so every op kind repeats; oracle ops are short enough for eleven, so
    # its percentiles always rest on 33 ops or more
    min_cycles: int

    def ops(self, seed: int, smoke: bool = False) -> list[OpSpec]:
        return self.build(seed & SEED_MASK, smoke)


WORKLOADS = {
    "figures": Workload("figures", _figures, min_cycles=2),
    "large_bath": Workload("large_bath", _large_bath, min_cycles=2),
    "oracle": Workload("oracle", _oracle, min_cycles=11),
}


def load_references(path: Path = REFERENCES_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """What one op returned, and how long it took."""

    seconds: float
    text: str | None = None  # rendered CSV (run ops)
    table: ResultTable | None = None  # run ops
    report: OracleReport | None = None  # oracle ops
    error: str | None = None


def execute(op: OpSpec) -> Outcome:
    """Run one op through the public API, timing exactly the user-visible call."""
    start = time.perf_counter()
    try:
        if op.is_oracle:
            report = oracle_check(op.config, op.oracle_n,
                                  analytic_beta_skew=op.analytic_beta_skew)
            return Outcome(time.perf_counter() - start, report=report)
        table = run(op.config)
        text = table.render()
        return Outcome(time.perf_counter() - start, text=text, table=table)
    except Exception as exc:  # a failing op is counted, not fatal
        return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")


class Gate:
    """Checks every op's output; remembers first bodies for determinism.

    run ops: stored reference (max |deviation| <= ORACLE_TOLERANCE) when one
    exists for the op and seed, validity bounds (|p_x| <= 1 + 1e-12,
    0 <= C <= 1 + 1e-12, all finite), and a byte-identical CSV body on every repeat
    of the op within the run. oracle ops: OracleReport.passed.
    """

    def __init__(self, references: dict, seed: int):
        self.references = references
        self.seed = seed
        self.first_body: dict[str, str] = {}

    def check(self, op: OpSpec, outcome: Outcome) -> tuple[list[str], list[str]]:
        """Return (checks applied, problems found); no problems means pass."""
        if outcome.error is not None:
            return ["completed"], [outcome.error]
        if op.is_oracle:
            report = outcome.report
            if report.passed:
                return ["oracle"], []
            worst = max(dev for _, dev in report.entries)
            return ["oracle"], [f"oracle cross-check failed, max deviation {worst:.3e}"]
        checks, problems = ["validity"], []
        table = outcome.table
        values = np.asarray(table.rows, dtype=float)[:, 1:]
        if not np.all(np.isfinite(values)):
            problems.append("non-finite value")
        elif op.config.mode == "single":
            worst = float(np.abs(values).max())
            if worst > 1.0 + VALIDITY_SLACK:
                problems.append(f"|p_x| = {worst!r} exceeds 1 + {VALIDITY_SLACK:g}")
        elif values.min() < 0.0 or values.max() > 1.0 + VALIDITY_SLACK:
            problems.append(f"concurrence outside [0, 1]: [{values.min()!r}, {values.max()!r}]")
        reference = self.references.get(op.reference_key(self.seed))
        if reference is not None:
            checks.append("reference")
            problems += compare_to_reference(table, reference)
        body = outcome.table.body()
        first = self.first_body.get(op.name)
        if first is None:
            self.first_body[op.name] = body
        else:
            checks.append("determinism")
            if body != first:
                problems.append("CSV body differs from this op's first run")
        return checks, problems


def compare_to_reference(table, reference: dict) -> list[str]:
    if tuple(reference["columns"]) != tuple(table.columns):
        return [f"columns {table.columns} differ from reference {reference['columns']}"]
    expected = np.asarray(reference["rows"], dtype=float)
    got = np.asarray(table.rows, dtype=float)
    if expected.shape != got.shape:
        return [f"shape {got.shape} differs from reference {expected.shape}"]
    deviation = float(np.abs(got - expected).max())
    if not deviation <= ORACLE_TOLERANCE:
        return [f"max deviation from reference {deviation:.3e} > {ORACLE_TOLERANCE:g}"]
    return []


def table_record(table) -> dict:
    """JSON form of a ResultTable's numbers (floats round-trip exactly)."""
    return {"columns": list(table.columns),
            "rows": [[float(x) for x in row] for row in table.rows]}


def tail(times: list[float]) -> float:
    """90th percentile of op time, interpolated between order statistics.

    A fixed percentile: a rule that picks the percentile from the op count
    would jump whenever the host's speed changes how many cycles fit in a
    run, because each cycle mixes op kinds of very different cost.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]
