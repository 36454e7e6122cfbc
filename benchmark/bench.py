"""Closed-loop measurement of one workload, untraced or traced.

One client in one process: each op starts when the previous one has
finished and been checked. Whole cycles of the workload's ops run until
``--seconds`` would be passed by one more cycle, after at least the
workload's ``min_cycles``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, setup_estimate
from workloads import WORKLOADS, Gate, OpSpec, execute, load_references, tail

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 9

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports: BENCHMARK.json's
    end_to_end list untraced, its per_layer list traced."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@dataclass
class OpRow:
    op: OpSpec
    seconds: float
    checks: list[str]
    problems: list[str] = field(default_factory=list)


def setup(workload: str, seed: int, smoke: bool = False):
    """Everything before the first op: build the inputs, load the references."""
    return WORKLOADS[workload].ops(seed, smoke), load_references()


class SetupProbe:
    """Start-to-ready times of fresh processes that do only the set-up.

    The probes are spread evenly over the run, so that their median spans
    the host's stretches of faster and slower CPU, not the one stretch at
    the start. Each child prints its CLOCK_MONOTONIC reading once ready;
    the parent reads the same clock just before starting it.
    """

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool):
        self.command = [sys.executable, str(RUN_PY), "--setup-only", "--workload",
                        workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        self.slot = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.times: list[float] = []

    def _probe(self) -> None:
        start = time.monotonic()
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=120,
                              check=True)
        self.times.append(float(done.stdout.split()[-1]) - start)

    def due(self) -> None:
        """Take the probes whose slots have begun."""
        while (len(self.times) < SETUP_REPEATS
               and len(self.times) * self.slot <= time.perf_counter() - self.start):
            self._probe()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.times)


def closed_loop(seconds: float, min_cycles: int, cycle) -> int:
    """Run cycle() at least min_cycles times, then while another one fits."""
    start = time.perf_counter()
    done = 0
    while True:
        cycle()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_cycles and elapsed * (done + 1) / done > seconds:
            return done


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Untraced run: the end-to-end metrics."""
    ops, references = setup(workload, seed, smoke)
    probe = SetupProbe(workload, seed, seconds, smoke)
    gate = Gate(references, seed)
    rows: list[OpRow] = []

    def cycle():
        for op in ops:
            probe.due()
            outcome = execute(op)
            rows.append(OpRow(op, outcome.seconds, *gate.check(op, outcome)))

    cycles = closed_loop(seconds, WORKLOADS[workload].min_cycles, cycle)
    setup_s = probe.median()
    times = [row.seconds for row in rows]
    delivered = sum(row.op.points for row in rows if not row.problems)
    tail_s = tail(times)
    metrics = {
        "points_per_s": delivered / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"tail_samples": len(times), "tail_ops_beyond": sum(t > tail_s for t in times),
             "setup_samples": probe.times}
    return _result(workload, seed, seconds, 0, cycles, rows, metrics, extra, None)


def measure_traced(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Traced run: each op runs untraced and is checked, then runs again
    with the package's names patched to record spans."""
    ops, references = setup(workload, seed, smoke)
    items = {op.name: op.bath_items() for op in ops}
    gate = Gate(references, seed)
    tracer = Tracer()
    rows: list[OpRow] = []
    totals = {"untraced": 0.0, "traced": 0.0, "setup": 0.0}

    def cycle():
        for op in ops:
            outcome = execute(op)
            row = OpRow(op, outcome.seconds, *gate.check(op, outcome))
            row.checks.append("traced")
            tracer.op_id = len(rows)
            rows.append(row)
            mark = len(tracer.trajectories)
            with tracer.patched():
                traced = execute(op)
            if traced.error is not None:
                row.problems.append(f"traced op raised {traced.error}")
                del tracer.trajectories[mark:]
                continue
            if (traced.report, traced.text) != (outcome.report, outcome.text):
                row.problems.append("traced op's output differs from the untraced op's")
            made = tracer.trajectories[mark:]
            for trajectory in made:
                trajectory.items = items[op.name]
            totals["untraced"] += outcome.seconds
            totals["traced"] += traced.seconds
            totals["setup"] += sum(setup_estimate(t) for t in made)

    cycles = closed_loop(seconds, 1, cycle)
    # no op traced at all only when every op failed; the run then reports 0s
    overhead = totals["traced"] / totals["untraced"] - 1.0 if totals["traced"] else 0.0
    metrics = layer_metrics(tracer, len(rows), totals["setup"], overhead)
    return _result(workload, seed, seconds, 1, cycles, rows, metrics, {}, tracer.arrays())


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    root = HERE.parent
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _result(workload, seed, seconds, trace, cycles, rows, metrics, extra, spans) -> dict:
    ops = {}
    for row in rows:
        entry = ops.setdefault(row.op.name, {"count": 0, "checks": set(), "failed": 0})
        entry["count"] += 1
        entry["checks"].update(row.checks)
        entry["failed"] += bool(row.problems)
    record = {
        "workload": workload,
        "workloads": list(WORKLOADS),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cycles": cycles,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": _commit(),
        "ops": {name: {**entry, "checks": sorted(entry["checks"])}
                for name, entry in ops.items()},
    }
    record.update(extra)
    failed = sum(bool(row.problems) for row in rows)
    return {
        "record": record,
        "metrics": metrics,
        "attempted": len(rows),
        "failed": failed,
        "problems": [f"{row.op.name}: {p}" for row in rows for p in row.problems],
        "op_times": [[row.op.name, row.seconds, not row.problems] for row in rows],
        "spans": spans,
    }


def report(result: dict) -> str:
    """Print the human-readable lines; write the run file; return the last line."""
    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    units = metric_units(result["record"]["trace"])
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_ops_frac = {failed / attempted!r} fraction ({failed}/{attempted} ops)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print("run_record: " + json.dumps(result["record"], sort_keys=True))
    record = result["record"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as handle:
        json.dump({k: result[k] for k in ("record", "metrics", "problems", "op_times")},
                  handle)
    if result["spans"] is not None:
        np.savez(path.with_suffix(".spans.npz"), **result["spans"])
    last = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return json.dumps(last)
