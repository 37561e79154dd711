"""Figure 10: test application time vs area overhead for System 1.

The paper plots 18 design points from combinations of core versions;
design point 1 is the minimum-area chip, the last point uses minimum-
latency versions everywhere, and the curve shows a multi-fold TAT
reduction for a modest area increase.  We sweep *every* combination of
our synthesized versions (27 with three versions per core) and check
the same qualitative shape:

* the TAT range spans at least 2x;
* the minimum-TAT point is NOT the maximum-area point (the paper's
  design-point-17-vs-18 observation);
* the Pareto front is monotone.
"""

from __future__ import annotations

from conftest import write_bench_json, write_result

from repro.obs import METRICS
from repro.soc import design_space
from repro.util import render_table

ROUNDS = 3


def sweep(soc):
    return design_space(soc)


def test_fig10_design_space(benchmark, system1, results_dir):
    METRICS.reset()  # BENCH json carries exactly the measured runs' counters
    points = benchmark.pedantic(sweep, args=(system1,), rounds=ROUNDS, iterations=1)
    # Pareto front: strictly improving TAT for increasing cells
    front = []
    best = None
    for p in points:  # already sorted by cells
        if best is None or p.tat < best:
            best = p.tat
            front.append(p)
    write_bench_json(
        results_dir,
        "fig10_design_space",
        benchmark,
        {
            "points": len(points),
            "min_tat": min(p.tat for p in points),
            "max_tat": max(p.tat for p in points),
            "min_area_cells": points[0].chip_cells,
            "pareto_points": len(front),
            "test_vectors": {c.name: c.test_vectors for c in system1.testable_cores()},
        },
        rounds=ROUNDS,
    )

    rows = [[p.index, p.chip_cells, p.tat, p.label()] for p in points]
    text = render_table(
        ["point", "chip DFT cells", "TAT (cycles)", "versions"],
        rows,
        title=f"Figure 10: design space of System 1 ({len(points)} points)",
    )
    write_result(results_dir, "fig10_design_space", text)

    tats = [p.tat for p in points]
    min_tat_point = min(points, key=lambda p: (p.tat, p.chip_cells))
    max_cells_point = max(points, key=lambda p: p.chip_cells)

    # shape checks mirroring the paper's observations
    assert max(tats) / min(tats) >= 2.0, "TAT range too narrow"
    assert points[0].tat == max(
        p.tat for p in points if p.chip_cells == points[0].chip_cells
    )  # the cheapest point is among the slowest
    assert min_tat_point.chip_cells < max_cells_point.chip_cells, (
        "minimum TAT should not require the maximum-area versions"
    )

    assert len(front) >= 3, "expected a non-trivial trade-off curve"
    front_tats = [p.tat for p in front]
    assert front_tats == sorted(front_tats, reverse=True)
