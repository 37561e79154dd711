"""Self-tests of the benchmark: tiny runs, the output contract, oracle teeth.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import harness, trace, workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def contract_units(section):
    return {metric["name"]: metric["unit"] for metric in CONTRACT[section]}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny_runs(request):
    """An untraced and a traced tiny run of one workload."""
    cls = workloads.WORKLOADS[request.param]
    return (
        harness.measure(cls, SEED, seconds=0.0, tiny=True),
        harness.measure_traced(cls, SEED, seconds=0.0, tiny=True),
    )


def test_tiny_runs_have_no_failed_ops(tiny_runs):
    for result in tiny_runs:
        assert result.attempted >= 1
        assert result.failed == 0, result.problems


def test_metric_names_and_units_match_the_contract(tiny_runs):
    plain, traced = tiny_runs
    assert {n: u for n, (_, u) in plain.metrics.items()} == contract_units("end_to_end")
    assert {n: u for n, (_, u) in traced.metrics.items()} == contract_units("per_layer")


def test_modelled_metrics_repeat_in_the_traced_run(tiny_runs):
    plain, traced = tiny_runs
    modelled = [name for name in contract_units("end_to_end") if name in plain.totals]
    assert modelled == ["test_efficiency_pct", "tat_cycles", "dft_cells"]
    for name in modelled:
        assert plain.totals[name] == traced.totals[name]
        assert plain.metrics[name][0] > 0


def test_self_times_and_unaccounted_sum_to_op_wall_time(tiny_runs):
    _, traced = tiny_runs
    spans = [span for span in traced.recorder.spans if span[2] is not None]
    op_wall = sum(span[5] - span[4] for span in spans if span[3] == trace.ROOT)
    traced_passes = traced.passes - 1
    assert sum(traced.layers.values()) == pytest.approx(1e3 * op_wall / traced_passes)
    assert traced.layers["unaccounted"] >= 0.0


def test_dropped_atpg_pattern_is_a_failed_op(monkeypatch):
    run = workloads.AtpgWorkload.run

    def drop_last_pattern(self, op):
        outcome = run(self, op)
        del outcome.patterns[-1]
        return outcome

    monkeypatch.setattr(workloads.AtpgWorkload, "run", drop_last_pattern)
    result = harness.measure(workloads.AtpgWorkload, SEED, seconds=0.0, tiny=True)
    assert result.failed >= 1
    assert any("not confirmed" in problem for problem in result.problems)


def test_false_redundancy_claim_is_a_failed_op(monkeypatch):
    run = workloads.AtpgWorkload.run

    def claim_a_detected_fault_redundant(self, op):
        outcome = run(self, op)
        unresolved = set(outcome.redundant) | set(outcome.aborted)
        outcome.redundant.append(next(f for f in op.faults if f not in unresolved))
        return outcome

    monkeypatch.setattr(workloads.AtpgWorkload, "run", claim_a_detected_fault_redundant)
    result = harness.measure(workloads.AtpgWorkload, SEED, seconds=0.0, tiny=True)
    assert result.failed >= 1
    assert any("claimed redundant are detected" in problem for problem in result.problems)


def test_an_op_that_raises_is_a_failed_op(monkeypatch):
    def boom(self, op):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.AtpgWorkload, "run", boom)
    result = harness.measure(workloads.AtpgWorkload, SEED, seconds=0.0, tiny=True)
    assert result.failed == result.attempted > 0
    assert "RuntimeError: boom" in result.problems[0]


def test_plan_oracle_catches_a_broken_budget():
    workload = workloads.PlanWorkload(SEED, tiny=True)
    workload.prepare()
    op = workload.ops[0]
    out = workload.run(op)
    assert workload.check(op, out) == []
    out.tat_budget = out.small.total_tat - 1
    assert any("budget" in problem for problem in workload.check(op, out))


@pytest.mark.parametrize("field, message", [
    ("cadence", "cadence"), ("scan_steps", "scan steps"), ("flush", "flush"),
])
def test_plan_oracle_catches_an_understated_core_test_time(field, message):
    workload = workloads.PlanWorkload(SEED, tiny=True)
    workload.prepare()
    op = workload.ops[0]
    out = workload.run(op)
    core_plan = next(iter(out.fast.core_plans.values()))
    # still adds up, since total_tat is the sum of the core plans' terms
    lower = {"cadence": 0, "scan_steps": core_plan.scan_steps - 1, "flush": core_plan.flush - 1}
    setattr(core_plan, field, lower[field])
    assert any(message in problem for problem in workload.check(op, out))


def test_grade_oracle_catches_a_shifted_verdict():
    workload = workloads.GradeWorkload(SEED, tiny=True)
    workload.prepare()
    for op in workload.ops:
        result = workload.run(op)
        if result.detected:
            break
    assert result.detected
    assert workload.check(op, result) == []
    for fault in result.detected:
        result.first_detection[fault] += 1
    assert workload.check(op, result)


def run_command(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
         "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_as_its_last_line():
    done = run_command(ROOT, "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_command(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
