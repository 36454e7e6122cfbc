"""Traced ops, and per-layer metrics from the spans.

A traced op is the same ``execute(op)`` call as an untraced one. While it
runs, the names in ``PATCHES`` are replaced by wrappers that record a span
(name, start, end, parent, op id) around each call, and are restored when
the op ends. Those are the names the package looks up at call time: the
calls ``experiments.run()`` and ``experiments.oracle_check()`` make, the
per-configuration model functions and the configspace reduction the
trajectories call, the Hermitian eigensolver and ``numpy.linalg.eigh``.
The package source is not changed. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import workloads
from spinbath import experiments, oracle, single_qubit, two_qubit

# (module or class, attribute, span name). A span counts towards the self
# time of the module its name starts with.
PATCHES = (
    (workloads, "run", "experiments.run"),
    (workloads, "oracle_check", "experiments.oracle_check"),
    (experiments.BathSpec, "materialize", "experiments.BathSpec.materialize"),
    (experiments.ResultTable, "render", "experiments.ResultTable.render"),
    (experiments, "require_uniform", "model.require_uniform"),
    (experiments, "bloch_trajectory", "single_qubit.bloch_trajectory"),
    (experiments, "density_trajectory", "two_qubit.density_trajectory"),
    (experiments, "concurrence", "two_qubit.concurrence"),
    (experiments, "build_hamiltonian", "oracle.build_hamiltonian"),
    (experiments, "initial_state", "oracle.initial_state"),
    (experiments, "evolve_and_reduce", "oracle.evolve_and_reduce"),
    (single_qubit, "require_uniform", "model.require_uniform"),
    (single_qubit, "config_quantities", "model.config_quantities"),
    (single_qubit, "class_quantities", "model.class_quantities"),
    (single_qubit, "log_correlation_factor", "model.log_correlation_factor"),
    (single_qubit, "collapse_classes", "configspace.collapse_classes"),
    (single_qubit, "reduce_weighted", "configspace.reduce_weighted"),
    (two_qubit, "require_uniform", "model.require_uniform"),
    (two_qubit, "bath_sums", "model.bath_sums"),
    (two_qubit, "class_sums", "model.class_sums"),
    (two_qubit, "collapse_classes", "configspace.collapse_classes"),
    (two_qubit, "reduce_weighted", "configspace.reduce_weighted"),
    (two_qubit, "hermitian_eig", "numerics.hermitian_eig"),
    (oracle, "hermitian_eig", "numerics.hermitian_eig"),
    (np.linalg, "eigh", "numerics.eigh"),
)

# modules whose self time is reported
MODULES = ("experiments", "model", "configspace", "single_qubit", "two_qubit",
           "oracle", "numerics")


@dataclass
class Trajectory:
    """One trajectory call made during a traced op, kept for the setup probe."""

    function: object  # the unwrapped bloch_trajectory or density_trajectory
    args: tuple  # positional arguments, times at index 5
    seconds: float
    items: int = 0  # configurations summed, set from the op's input

    @property
    def n_points(self) -> int:
        return len(self.args[5])


def _log_trajectory(tracer, seconds, function, args, result):
    tracer.trajectories.append(Trajectory(function, args, seconds))


def _count_render(tracer, seconds, function, args, result):
    tracer.counts["experiments.render_bytes"] += len(result.encode())


def _count_eigh(tracer, seconds, function, args, result):
    tracer.counts["numerics.eigh_matrices"] += math.prod(np.shape(args[0])[:-2])


HOOKS = {
    "single_qubit.bloch_trajectory": _log_trajectory,
    "two_qubit.density_trajectory": _log_trajectory,
    "experiments.ResultTable.render": _count_render,
    "numerics.eigh": _count_eigh,
}


class Tracer:
    """In-memory span recorder: one entry per span in parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")  # index of the enclosing span, -1 at top level
        self.op_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.trajectories: list[Trajectory] = []
        self.op_id = -1
        self._stack = [-1]

    def _wrap(self, function, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1])
            self.op_ids.append(self.op_id)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, self.ends[index] - self.starts[index], function, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every name in PATCHES through this tracer for the block."""
        saved = [(owner, attribute, getattr(owner, attribute))
                 for owner, attribute, _ in PATCHES]
        try:
            for (owner, attribute, original), (_, _, name) in zip(saved, PATCHES):
                setattr(owner, attribute, self._wrap(original, name))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as arrays, for writing out at the end of the run."""
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.asarray(self.name_ids), "parent": np.asarray(self.parents),
                "op_id": np.asarray(self.op_ids), "start": np.asarray(self.starts),
                "end": np.asarray(self.ends)}


def setup_estimate(trajectory: Trajectory) -> float:
    """Per-configuration setup time of one trajectory call:
    t(first point) - (t(all T points) - t(first point)) / (T - 1).

    The first-point call is re-run here with the names patched to a scratch
    tracer, so it pays the same tracing cost as the traced call.
    """
    args = list(trajectory.args)
    args[5] = args[5][:1]
    with Tracer().patched():
        start = time.perf_counter()
        trajectory.function(*args)
        first = time.perf_counter() - start
    return first - (trajectory.seconds - first) / (trajectory.n_points - 1)


def layer_metrics(tracer: Tracer, n_ops: int, setup_seconds: float,
                  overhead_frac: float) -> dict[str, float]:
    """Per-op layer numbers from the recorded spans (see README.md)."""
    ids = np.asarray(tracer.name_ids, dtype=np.intp)
    parents = np.asarray(tracer.parents, dtype=np.intp)
    duration = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=duration[nested],
                          minlength=len(duration))
    size = len(tracer.names)
    busy = dict(zip(tracer.names, np.bincount(ids, weights=duration, minlength=size)))
    calls = dict(zip(tracer.names, np.bincount(ids, minlength=size)))
    self_time: defaultdict = defaultdict(float)
    for name, seconds in zip(tracer.names, np.bincount(ids, weights=duration - covered,
                                                       minlength=size)):
        self_time[name.split(".")[0]] += seconds
    trajectories = tracer.trajectories
    trajectory_s = sum(t.seconds for t in trajectories)
    item_points = sum(t.items * t.n_points for t in trajectories) or 1
    totals = {
        "configspace.item_points": item_points,
        "model.setup_s": setup_seconds,
        "single_qubit.trajectory_s": busy.get("single_qubit.bloch_trajectory", 0.0),
        "two_qubit.trajectory_s": busy.get("two_qubit.density_trajectory", 0.0),
        "two_qubit.concurrence_s": busy.get("two_qubit.concurrence", 0.0),
        "two_qubit.concurrence_calls": calls.get("two_qubit.concurrence", 0),
        "experiments.render_s": busy.get("experiments.ResultTable.render", 0.0),
        "experiments.render_bytes": tracer.counts["experiments.render_bytes"],
        "oracle.build_s": busy.get("oracle.build_hamiltonian", 0.0),
        "oracle.initial_state_s": busy.get("oracle.initial_state", 0.0),
        "oracle.evolve_s": busy.get("oracle.evolve_and_reduce", 0.0),
        "oracle.evolve_calls": calls.get("oracle.evolve_and_reduce", 0),
        "numerics.eigh_calls": calls.get("numerics.eigh", 0),
        "numerics.eigh_matrices": tracer.counts["numerics.eigh_matrices"],
        "numerics.eigh_s": busy.get("numerics.eigh", 0.0),
    }
    totals.update({f"{module}.self_s": self_time[module] for module in MODULES})
    metrics = {name: float(value) / n_ops for name, value in totals.items()}
    metrics["configspace.items"] = sum(t.items for t in trajectories) / max(len(trajectories), 1)
    metrics["configspace.sweep_ns_per_item_point"] = \
        (trajectory_s - setup_seconds) / item_points * 1e9
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
