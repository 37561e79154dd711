"""Figure 6: CPU transparency latency vs overhead trade-off.

Paper's table (Version / D->A(7:0) / D->A(11:8) / D->A(11:0) / cells):

    Version 1:  6  2  8   3
    Version 2:  1  2  3  10
    Version 3:  1  1  2  30

Our reproduction regenerates the three versions from the CPU RTL with
the generic HSCAN + transparency algorithms and must land on the same
latencies (the overhead cells follow our own cost model).
"""

from __future__ import annotations

from conftest import write_bench_json, write_result

from repro.designs import build_cpu
from repro.dft import insert_hscan
from repro.transparency import generate_versions
from repro.util import render_table

PAPER = {  # version -> (A(7:0), A(11:8), A(11:0), cells)
    "Version 1": (6, 2, 8, 3),
    "Version 2": (1, 2, 3, 10),
    "Version 3": (1, 1, 2, 30),
}


def generate_cpu_versions():
    circuit = build_cpu()
    return generate_versions(circuit, insert_hscan(circuit))


def test_fig6_cpu_version_tradeoff(benchmark, results_dir):
    from repro.obs import METRICS

    METRICS.reset()  # BENCH json carries exactly the measured runs' counters
    versions = benchmark.pedantic(generate_cpu_versions, rounds=3, iterations=1)
    write_bench_json(
        results_dir,
        "fig6_cpu_versions",
        benchmark,
        {
            version.name: {
                "low_latency": version.justify_latency("Address", 0, 8),
                "high_latency": version.justify_latency("Address", 8, 4),
                "total_latency": version.justify_latency("Address"),
                "extra_cells": version.extra_cells,
            }
            for version in versions
        },
        rounds=3,
    )

    rows = []
    for version in versions:
        low = version.justify_latency("Address", 0, 8)
        high = version.justify_latency("Address", 8, 4)
        total = version.justify_latency("Address")
        paper = PAPER[version.name]
        rows.append(
            [
                version.name,
                low,
                high,
                total,
                version.extra_cells,
                f"{paper[0]}/{paper[1]}/{paper[2]} @{paper[3]}",
            ]
        )
        # the latencies must match the paper exactly
        assert (low, high, total) == paper[:3], version.name

    text = render_table(
        ["CPU", "D->A(7:0)", "D->A(11:8)", "D->A(11:0)", "Ovhd(cells)", "paper (lat@cells)"],
        rows,
        title="Figure 6: CPU transparency latency vs overhead",
    )
    write_result(results_dir, "fig6_cpu_versions", text)
