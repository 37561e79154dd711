"""Table 3: fault coverage / test efficiency / test time, both systems.

Paper rows for System 1 (FC% / TEff% / cycles):

    Orig.        10.6 / 10.8 /    -
    HSCAN        14.6 / 14.9 /    -
    FSCAN-BSCAN  98.4 / 99.8 / 36,152
    SOCET        98.4 / 99.8 / 17,387 (min area) and 3,806 (min TApp)

and for System 2: 11.2 -> 13.8 -> 98.2 @ 46,394 -> 16,435 / 3,998.

Shape requirements checked here:

* the original and HSCAN-only chips have poor coverage (far below the
  scan-based rows) -- chip-level DFT is what makes core tests usable;
* FSCAN-BSCAN and SOCET reach the same (high) coverage, because the
  same core test sets are applied;
* SOCET's test time beats FSCAN-BSCAN's, and the min-TApp point beats
  the min-area point.

This is the heaviest bench (two full flow-driver runs: per-core ATPG and
fault simulation plus whole-chip sequential fault grading), so it runs
one round.  E7's backtrack-limit check reads the default limit's TEff
and PODEM backtracks off those runs' records and reruns the per-core
ATPG at the raised limit only.
"""

from __future__ import annotations

import inspect

from conftest import SEED, record_bench, write_result

from repro.atpg.combinational import CombinationalAtpg
from repro.elaborate import elaborate
from repro.faults.coverage import CoverageReport
from repro.flow import record_rows, render_grading_budget, render_testability_table
from repro.flow.profile import run_pipeline
from repro.obs import METRICS

#: PODEM backtrack limits of E7's check: the default, which the flow
#: driver runs, and the raised one that recovers part of the TEff gap
DEFAULT_LIMIT = inspect.signature(CombinationalAtpg).parameters["backtrack_limit"].default
RAISED_LIMIT = 600


def both_runs():
    return run_pipeline("System1"), run_pipeline("System2")


def raised_limit_atpg(soc):
    """TEff and PODEM backtracks of the scan rows at the raised limit."""
    METRICS.reset()
    merged = CoverageReport(total=0, detected=0)
    for core in soc.testable_cores():
        netlist = elaborate(core.circuit).netlist
        outcome = CombinationalAtpg(netlist, seed=SEED, backtrack_limit=RAISED_LIMIT).run()
        merged = merged.merged_with(outcome.report)
    return {
        "teff": merged.test_efficiency,
        "backtracks": METRICS.counter("atpg.podem.backtracks").value,
    }


def test_table3_testability(benchmark, system1, system2, results_dir):
    runs = benchmark.pedantic(both_runs, rounds=1, iterations=1)
    tables = [record_rows(run, "testability") for run in runs]
    budgets = [run["results"]["grading"] for run in runs]
    assert budgets[0] == budgets[1]

    results = {}
    for run, rows, soc in zip(runs, tables, (system1, system2)):
        rows_by_name = {row.configuration: row for row in rows}
        results[soc.name] = {
            **{
                row.configuration: {
                    "fc": row.fault_coverage,
                    "teff": row.test_efficiency,
                    "tat": row.tat,
                }
                for row in rows
            },
            "backtrack_limits": {
                str(DEFAULT_LIMIT): {
                    "teff": rows_by_name["FSCAN-BSCAN"].test_efficiency,
                    "backtracks": run["counters"]["atpg.podem.backtracks"],
                },
                str(RAISED_LIMIT): raised_limit_atpg(soc),
            },
            "grading": run["results"]["grading"],
        }
    record_bench(results_dir, "table3_testability", benchmark, results, runs=runs)

    text = render_testability_table(tables[0] + tables[1])
    paper_note = (
        "\npaper: System1 10.6 -> 14.6 -> 98.4@36152 -> SOCET 98.4 @17387/3806"
        "\n       System2 11.2 -> 13.8 -> 98.2@46394 -> SOCET 98.2 @16435/3998"
    )
    write_result(
        results_dir,
        "table3_testability",
        text + "\n" + render_grading_budget(budgets[0]) + paper_note,
    )

    for rows in tables:
        row = {row.configuration: row for row in rows}
        orig, hscan, baseline = row["Orig."], row["HSCAN"], row["FSCAN-BSCAN"]
        socet_area, socet_tat = row["SOCET Min. Area"], row["SOCET Min. TApp."]

        assert orig.fault_coverage < baseline.fault_coverage - 25.0, (
            "undesigned-for-test chip must grade far below scan-based coverage"
        )
        assert hscan.fault_coverage < baseline.fault_coverage - 25.0, (
            "HSCAN alone (no chip-level DFT) must stay far below scan-based coverage"
        )
        assert baseline.fault_coverage > 85.0
        assert baseline.test_efficiency > 95.0
        assert socet_area.fault_coverage == baseline.fault_coverage
        assert socet_area.tat < baseline.tat
        assert socet_tat.tat < socet_area.tat
