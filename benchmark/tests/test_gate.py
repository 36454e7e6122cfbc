"""Tests of the benchmark itself: the output gate counts corrupted ops as
failed, a traced op records spans and restores the names it patched, and a
smoke-sized run emits every metric BENCHMARK.json names.

    python3 -m pytest -q benchmark/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace

from pathlib import Path

import pytest

import bench
import tracing
from workloads import WORKLOADS, Gate, execute, load_references, table_record, tail

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_skewed_oracle_op_counts_as_failed(monkeypatch):
    oracle = WORKLOADS["oracle"]

    def skewed(seed, smoke):
        return [replace(op, analytic_beta_skew=0.1) for op in oracle.build(seed, smoke)]

    monkeypatch.setitem(WORKLOADS, "oracle", replace(oracle, build=skewed))
    result = bench.measure("oracle", 0, seconds=0, smoke=True)
    assert result["attempted"] >= 3
    assert result["failed"] == result["attempted"]


def test_unskewed_oracle_op_passes():
    op = WORKLOADS["oracle"].ops(0, smoke=True)[0]
    checks, problems = Gate({}, 0).check(op, execute(op))
    assert checks == ["oracle"] and problems == []


def test_figures_op_against_perturbed_reference_counts_as_failed(monkeypatch):
    fig4 = WORKLOADS["figures"].ops(0, smoke=True)[0]
    record = table_record(execute(fig4).table)
    perturbed = copy.deepcopy(record)
    perturbed["rows"][1][1] += 1e-6

    monkeypatch.setattr(bench, "load_references", lambda: {"fig4_t3": record})
    clean = bench.measure("figures", 0, seconds=0, smoke=True)
    assert clean["failed"] == 0
    assert "reference" in clean["record"]["ops"]["fig4_t3"]["checks"]

    monkeypatch.setattr(bench, "load_references", lambda: {"fig4_t3": perturbed})
    corrupted = bench.measure("figures", 0, seconds=0, smoke=True)
    fig4_ops = corrupted["record"]["ops"]["fig4_t3"]["count"]
    assert corrupted["failed"] == fig4_ops == corrupted["attempted"] // 4


def test_stored_reference_matches_full_size_figures_op():
    op = WORKLOADS["figures"].ops(0)[0]
    gate = Gate(load_references(), 0)
    checks, problems = gate.check(op, execute(op))
    assert "reference" in checks and problems == []


def test_traced_op_records_spans_and_restores_every_name():
    op = WORKLOADS["figures"].ops(0, smoke=True)[2]  # fig13: pair, collapse
    originals = [getattr(owner, attribute) for owner, attribute, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = execute(op)
    assert [getattr(owner, attribute) for owner, attribute, _ in tracing.PATCHES] == originals
    assert traced.error is None and traced.text == execute(op).text
    recorded = {tracer.names[i] for i in tracer.name_ids}
    assert {"experiments.run", "model.class_sums", "configspace.reduce_weighted",
            "numerics.hermitian_eig", "two_qubit.concurrence"} <= recorded
    metrics = tracing.layer_metrics(tracer, 1, 0.0, 0.0)
    assert metrics["model.self_s"] > 0 and metrics["configspace.self_s"] > 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    last = _last_json(done.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert "failed_ops_frac = 0.0 fraction" in done.stdout


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "figures", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_the_interpolated_90th_percentile():
    assert tail([float(i) for i in range(11)]) == 9.0
    assert tail([1.0, 2.0]) == pytest.approx(1.9)
