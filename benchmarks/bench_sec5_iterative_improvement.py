"""Section 5.2 worked example: the latency-number heuristic.

The paper computes the PREPROCESSOR's test-time improvement number from
the current test solution: edge (NUM, DB) is used twice for the DISPLAY
and once for the CPU (latency 5 -> contribution 15), edge (Reset, Eoc)
once (latency 2), so the initial latency number is 17; replacing the
core with the next version (NUM->DB = 1) drops it to 5, a dTAT of 12
with its dA of 17 cells.

Our usage accounting must show the same structure: with the minimum-
area selection, the PREPROCESSOR's DB justification is used three times
per step (twice for the DISPLAY's A and D, once for the CPU's Data) and
its Eoc justification once; upgrading PRE to Version 2 improves the
latency number by 3 uses x (5-1) = 12 exactly.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.obs import METRICS
from repro.soc import plan_soc_test
from repro.soc.optimizer import SocetOptimizer
from repro.util import render_table


def improvement_numbers(soc):
    optimizer = SocetOptimizer(soc)
    plan = plan_soc_test(soc)
    gains = {
        core.name: optimizer.replacement_gain(plan, core.name)
        for core in soc.testable_cores()
    }
    return plan, gains


def test_sec5_latency_number_example(benchmark, system1, results_dir):
    METRICS.reset()  # the record carries exactly the measured runs' counters
    plan, gains = benchmark.pedantic(
        improvement_numbers, args=(system1,), rounds=3, iterations=1
    )
    usage = plan.usage_counts()
    db_uses = usage[("PREPROCESSOR", "justify", ("DB", 0, 8))]
    eoc_uses = usage[("PREPROCESSOR", "justify", ("Eoc", 0, 1))]
    pre = system1.cores["PREPROCESSOR"]
    record_bench(
        results_dir,
        "sec5_iterative_improvement",
        benchmark,
        {
            "gains": {
                core: list(gain) if gain is not None else None
                for core, gain in sorted(gains.items())
            },
            "db_uses": db_uses,
            "eoc_uses": eoc_uses,
            "db_latencies": [v.justify_latency("DB", 0, 8) for v in pre.versions],
        },
    )
    # the paper's counting: (NUM, DB) twice for the DISPLAY + once for the CPU
    assert db_uses == 3, f"expected 3 DB uses, got {db_uses}"
    assert eoc_uses == 1

    v1_db = pre.version(0).justify_latency("DB", 0, 8)
    v2_db = pre.version(1).justify_latency("DB", 0, 8)
    expected_delta = db_uses * (v1_db - v2_db)  # 3 x (5 - 1) = 12, as in the paper

    delta_tat, delta_area = gains["PREPROCESSOR"]
    assert delta_tat == expected_delta == 12

    rows = []
    for core_name, gain in sorted(gains.items()):
        if gain is None:
            rows.append([core_name, "-", "-"])
        else:
            rows.append([core_name, gain[0], gain[1]])
    text = render_table(
        ["Core", "dTAT (latency number)", "dA (cells)"],
        rows,
        title="Section 5.2: replacement gains from the minimum-area solution "
        f"(PREPROCESSOR dTAT = {delta_tat}, paper: 12)",
    )
    write_result(results_dir, "sec5_iterative_improvement", text)
