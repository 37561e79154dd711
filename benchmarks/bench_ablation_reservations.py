"""Ablation: the Section 5.1 edge-reservation (shared-resource) rule.

When two transparency paths of a core share an RCG edge or an input
port, they cannot carry data in the same cycles -- the paper reserves
edges for cycle windows, so the reused edge pushes the second transfer
out.  Our model folds this into the combined justification latency
(paths sharing a resource add; disjoint groups take the max).

This bench removes the rule (naive latency = max over the slices) and
measures what it would get wrong: the CPU's Version 1 Address would
look like 6 cycles instead of 8, and the DISPLAY test of the Section 3
example would be scheduled at 525 x 7 + 3 instead of 525 x 9 + 3 --
an 18% underestimate that would produce corrupted test data on silicon.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.obs import METRICS
from repro.util import render_table


def latency_models(soc):
    """(combined, naive-max) CPU Address latency per version + DISPLAY TAT."""
    cpu = soc.cores["CPU"]
    display = soc.cores["DISPLAY"]
    pre_db = soc.cores["PREPROCESSOR"].version(1).justify_latency("DB", 0, 8)
    rows = []
    for version in cpu.versions:
        keys = [k for k in version.justify_paths if k[0] == "Address"]
        combined = version.combined_justify_latency(keys)
        naive = max(version.justify_paths[k].latency for k in keys)
        steps = display.hscan_vectors
        correct_tat = steps * (pre_db + combined) + 3
        naive_tat = steps * (pre_db + naive) + 3
        rows.append((version.name, combined, naive, correct_tat, naive_tat))
    return rows


def test_ablation_shared_resource_rule(benchmark, system1_paper_vectors, results_dir):
    METRICS.reset()  # the record carries exactly the measured runs' counters
    rows = benchmark.pedantic(
        latency_models, args=(system1_paper_vectors,), rounds=3, iterations=1
    )
    record_bench(
        results_dir,
        "ablation_reservations",
        benchmark,
        {
            name: {
                "reserved": combined,
                "naive": naive,
                "tat": correct,
                "naive_tat": naive_tat,
                "underestimate_percent": 100 * (correct - naive_tat) / correct,
            }
            for name, combined, naive, correct, naive_tat in rows
        },
    )

    table = [
        [name, combined, naive, correct, naive_tat,
         f"{100 * (correct - naive_tat) / correct:.1f}%"]
        for name, combined, naive, correct, naive_tat in rows
    ]
    text = render_table(
        ["CPU version", "reserved D->A(11:0)", "naive (max slice)",
         "DISPLAY TAT (reserved)", "DISPLAY TAT (naive)", "underestimate"],
        table,
        title="Ablation: Section 5.1 edge reservation vs naive max-latency",
    )
    write_result(results_dir, "ablation_reservations", text)

    by_name = {name: (combined, naive, correct, naive_tat) for name, combined, naive, correct, naive_tat in rows}
    # Version 1 shares (Data -> IR): 8 vs 6; the Section 3 schedule depends on it
    combined, naive, correct, naive_tat = by_name["Version 1"]
    assert combined == 8 and naive == 6
    assert correct == 4728 and naive_tat == 3678
    # every version: reservation can only lengthen the schedule
    for name, (combined, naive, correct, naive_tat) in by_name.items():
        assert combined >= naive
        assert correct >= naive_tat
    # Version 3's two 1-cycle paths still share the Data port: 2 vs 1
    assert by_name["Version 3"][0] == 2 and by_name["Version 3"][1] == 1
