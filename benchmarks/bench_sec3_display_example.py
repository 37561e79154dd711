"""Section 3 worked example: testing the DISPLAY through transparency.

With the paper's 105-vector DISPLAY test set (525 HSCAN vectors through
the 4-deep chains):

* CPU Version 1 (Data->Address in 8 cycles) and a 1-cycle PREPROCESSOR
  path: 525 x 9 + 3 = 4,728 cycles;
* CPU Version 2 (3 cycles): 525 x 4 + 3 = 2,103 cycles;
* CPU Version 3 (2 cycles): 525 x 3 + 3 = 1,578 cycles;
* FSCAN-BSCAN needs (66 + 20) x 105 + 85 = 9,115 cycles.

Every one of those numbers must come out of the generic planner.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.baselines.fscan_bscan import fscan_bscan_core_tat
from repro.soc import plan_soc_test
from repro.util import render_table

# (CPU version index, expected DISPLAY test time)
CASES = [(0, 4728), (1, 2103), (2, 1578)]


def plan_display_tests(soc):
    plans = []
    for cpu_version, _ in CASES:
        selection = {"CPU": cpu_version, "PREPROCESSOR": 1, "DISPLAY": 0}
        plans.append(plan_soc_test(soc, selection).core_plans["DISPLAY"])
    return plans


def test_sec3_display_worked_example(benchmark, system1_paper_vectors, results_dir):
    soc = system1_paper_vectors
    display = soc.cores["DISPLAY"]
    assert display.test_vectors == 105
    assert display.hscan_vectors == 525  # 105 x (4+1)

    from repro.obs import METRICS

    METRICS.reset()  # the record carries exactly the measured runs' counters
    plans = benchmark.pedantic(plan_display_tests, args=(soc,), rounds=3, iterations=1)
    fscan_bscan = fscan_bscan_core_tat(66, 20, 105)
    results = {
        f"cpu_v{cpu_version + 1}_tat": plan.tat for (cpu_version, _), plan in zip(CASES, plans)
    }
    results.update(
        cadences=[plan.cadence for plan in plans],
        scan_steps=plans[0].scan_steps,
        flush=plans[0].flush,
        display_flip_flops=display.flip_flops,
        display_input_bits=display.input_bits,
        display_scan_depth=display.scan_depth,
        fscan_bscan_tat=fscan_bscan,
    )
    record_bench(results_dir, "sec3_display_example", benchmark, results)

    rows = []
    for (cpu_version, expected), plan in zip(CASES, plans):
        rows.append(
            [f"CPU Version {cpu_version + 1}", plan.cadence, plan.scan_steps, plan.flush,
             plan.tat, expected]
        )
        assert plan.tat == expected, f"CPU V{cpu_version + 1}"

    rows.append(["FSCAN-BSCAN", "-", "-", "-", fscan_bscan, 9115])
    assert fscan_bscan == 9115

    text = render_table(
        ["Configuration", "cadence", "scan steps", "flush", "DISPLAY TAT", "paper"],
        rows,
        title="Section 3 worked example: DISPLAY test application time",
    )
    write_result(results_dir, "sec3_display_example", text)
