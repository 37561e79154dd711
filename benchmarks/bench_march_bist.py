"""Memory-core testing: March BIST (the paper's Section 5 footnote).

The RAM/ROM cores are excluded from the CCG and tested by BIST.  This
bench grades March C- (and the cheaper March X/Y) against the injected
stuck-at and inversion-coupling fault models on a scaled-down array and
reports the 4KB cores' BIST cycle counts.
"""

from __future__ import annotations

from conftest import write_bench_json, write_result

from repro.bist import MARCH_C_MINUS, MARCH_X, MARCH_Y, plan_memory_bist
from repro.bist.march import grade_march
from repro.bist.memory import all_stuck_at_faults, neighbour_coupling_faults
from repro.util import render_table

WORDS, WIDTH = 64, 8


def grade_all():
    stuck = all_stuck_at_faults(WORDS, WIDTH, stride=4)
    coupling = neighbour_coupling_faults(WORDS, WIDTH, stride=4)
    results = {}
    for test in (MARCH_C_MINUS, MARCH_X, MARCH_Y):
        s_detected, _ = grade_march(test, WORDS, WIDTH, stuck)
        c_detected, _ = grade_march(test, WORDS, WIDTH, coupling)
        results[test.name] = (s_detected, len(stuck), c_detected, len(coupling))
    return results


def test_march_bist_grading(benchmark, system1, results_dir):
    from repro.obs import METRICS

    METRICS.reset()  # BENCH json carries exactly the measured runs' counters
    results = benchmark.pedantic(grade_all, rounds=1, iterations=1)
    plan = plan_memory_bist(system1)
    payload = {
        name: {
            "stuck_detected": s_det,
            "stuck_total": s_total,
            "coupling_detected": c_det,
            "coupling_total": c_total,
        }
        for name, (s_det, s_total, c_det, c_total) in results.items()
    }
    payload["system1_bist"] = {
        "cycles": {row.core: row.cycles for row in plan.rows},
        "total_cycles": plan.total_cycles,
        "total_cells": plan.total_cells,
    }
    write_bench_json(results_dir, "march_bist", benchmark, payload, rounds=1)

    rows = []
    for name, (s_detected, s_total, c_detected, c_total) in results.items():
        rows.append(
            [name, f"{100 * s_detected / s_total:.1f}", f"{100 * c_detected / c_total:.1f}"]
        )
    rows.append(["-- System 1 BIST --", f"{plan.total_cycles} cycles", f"{plan.total_cells} cells"])
    text = render_table(
        ["March test", "stuck-at coverage %", "coupling coverage %"],
        rows,
        title=f"Memory BIST grading ({WORDS}x{WIDTH} sample array)",
    )
    write_result(results_dir, "march_bist", text)

    c_minus = results[MARCH_C_MINUS.name]
    assert c_minus[0] == c_minus[1], "March C- must detect all stuck-ats"
    assert c_minus[2] == c_minus[3], "March C- must detect all inversion couplings"
    x = results[MARCH_X.name]
    assert x[2] <= c_minus[2]
