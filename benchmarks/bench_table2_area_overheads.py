"""Table 2: area overheads, SOCET vs FSCAN-BSCAN, for both systems.

Paper's percentages (of the original chip area):

    System 1: FSCAN 18.8, HSCAN 10.1, BSCAN 5.2;
              SOCET chip-level 2.0 (min area) / 3.8 (min TApp);
              totals: FSCAN-BSCAN 24.0, SOCET 12.1 / 13.9.
    System 2: FSCAN 15.6, HSCAN 10.3, BSCAN 9.9;
              SOCET chip-level 1.2 / 4.7; totals 25.5 vs 11.5 / 15.0.

Absolute percentages depend on the cell library and the reconstructed
core sizes; the *relations* the table demonstrates must hold here:

* HSCAN is cheaper than full scan at the core level;
* SOCET's chip-level DFT is far cheaper than a boundary-scan ring;
* the SOCET total is well below the FSCAN-BSCAN total;
* the min-TApp variant costs more than the min-area variant.
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.flow.report import record_rows, render_area_table
from repro.flow.profile import run_pipeline


def both_runs():
    return run_pipeline("System1"), run_pipeline("System2")


def test_table2_area_overheads(benchmark, results_dir):
    runs = benchmark.pedantic(both_runs, rounds=1, iterations=1)
    tables = [record_rows(run, "area") for run in runs]
    record_bench(
        results_dir,
        "table2_area_overheads",
        benchmark,
        {
            rows[0].system: {
                "original_area": rows[0].original_area,
                "fscan_percent": rows[0].fscan_percent,
                "hscan_percent": rows[0].hscan_percent,
                "bscan_percent": rows[0].bscan_percent,
                "fscan_bscan_total_percent": rows[0].fscan_bscan_total_percent,
                # min-area first, then min-TApp (the table's row order)
                "socet_chip_percent": [row.socet_chip_percent for row in rows],
                "socet_total_percent": [row.socet_total_percent for row in rows],
            }
            for rows in tables
        },
        runs=runs,
    )

    rows = tables[0] + tables[1]
    text = render_area_table(rows)
    paper_note = (
        "\npaper: System1 FSCAN 18.8 / HSCAN 10.1 / BSCAN 5.2 / SOCET 2.0-3.8;"
        " totals 24.0 vs 12.1-13.9"
        "\n       System2 FSCAN 15.6 / HSCAN 10.3 / BSCAN 9.9 / SOCET 1.2-4.7;"
        " totals 25.5 vs 11.5-15.0"
    )
    write_result(results_dir, "table2_area_overheads", text + paper_note)

    for row in rows:
        assert row.hscan_percent < row.fscan_percent, "HSCAN must beat FSCAN"
        assert row.socet_chip_percent < row.bscan_percent, "SOCET chip DFT must beat BSCAN"
        assert row.socet_total_percent < row.fscan_bscan_total_percent, (
            "SOCET total must beat FSCAN-BSCAN total"
        )
    for min_area, min_tapp in tables:
        assert min_area.socet_chip_cells <= min_tapp.socet_chip_cells, (
            "min-area variant must not cost more than min-TApp variant"
        )
