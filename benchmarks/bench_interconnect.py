"""Extra: interconnect coverage, SOCET vs the test-bus architecture.

The paper's introduction argues the test bus "is unable to test the
interconnect that exists between cores"; SOCET's vectors travel through
the functional wiring and cover it for free.  This bench quantifies
that claim on both systems.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.flow.interconnect import bus_interconnect_report, interconnect_report
from repro.obs import METRICS
from repro.soc import plan_soc_test
from repro.util import render_table


def reports(system1, system2):
    rows = []
    for soc in (system1, system2):
        plan = plan_soc_test(soc)
        socet = interconnect_report(plan)
        bus = bus_interconnect_report(soc)
        rows.append((soc.name, socet, bus))
    return rows


def test_interconnect_coverage(benchmark, system1, system2, results_dir):
    METRICS.reset()  # the record carries exactly the measured runs' counters
    data = benchmark.pedantic(reports, args=(system1, system2), rounds=3, iterations=1)
    record_bench(
        results_dir,
        "interconnect",
        benchmark,
        {
            name: {
                "socet_coverage_percent": socet.coverage_percent,
                "bus_coverage_percent": bus.coverage_percent,
                "logic_bits": socet.logic_bits,
            }
            for name, socet, bus in data
        },
    )

    rows = []
    for name, socet, bus in data:
        rows.append(
            [name, socet.logic_bits, f"{socet.coverage_percent:.1f}",
             f"{bus.coverage_percent:.1f}", socet.memory_bits]
        )
        assert socet.coverage_percent > 80.0
        assert bus.coverage_percent == 0.0

    text = render_table(
        ["system", "logic interconnect bits", "SOCET coverage %",
         "test-bus coverage %", "memory-side bits (BIST domain)"],
        rows,
        title="Interconnect testing: SOCET vs test bus",
    )
    write_result(results_dir, "interconnect", text)
