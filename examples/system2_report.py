"""Full SOCET vs FSCAN-BSCAN comparison on System 2 (Tables 2 and 3).

Reproduces, for the graphics + GCD + X.25 system, the paper's two
comparison tables: the area-overhead breakdown and the testability
(fault coverage / test efficiency / test time) rows, both read off one
run of the flow driver.

Run:  python examples/system2_report.py
"""

from repro.designs import build_system2
from repro.flow import (
    render_area_table,
    render_grading_budget,
    render_testability_table,
    run_pipeline,
)
from repro.flow.profile import record_rows
from repro.bist import plan_memory_bist


def main():
    soc = build_system2()
    print(f"{soc.name}: cores = {sorted(soc.cores)}")
    for core in soc.testable_cores():
        versions = ", ".join(f"{v.name}@{v.extra_cells}c" for v in core.versions)
        print(f"  {core.name}: {core.flip_flops} FFs, {core.test_vectors} vectors, "
              f"scan depth {core.scan_depth}; versions: {versions}")

    # one run of the flow driver: ATPG, design space, baseline, tables
    run = run_pipeline(soc.name)

    # ---------------- Table 2: area overheads ----------------
    points = run["results"]["points"]
    area = record_rows(run, "area")
    print()
    print(render_area_table(area))
    testability = record_rows(run, "testability")
    baseline = next(row for row in testability if row.configuration == "FSCAN-BSCAN")
    print(f"\nFSCAN-BSCAN baseline: {baseline.tat} cycles, "
          f"{area[0].fscan_cells + area[0].bscan_cells} DFT cells")
    fewest, least = points["fewest cells"], points["least TAT"]
    print(f"SOCET min-area:       {fewest['tat']} cycles, "
          f"{fewest['cells']} chip-level DFT cells")
    print(f"SOCET min-TApp:       {least['tat']} cycles, "
          f"{least['cells']} chip-level DFT cells")

    # ---------------- Table 3: testability ----------------
    print()
    print(render_testability_table(testability))
    print(render_grading_budget(run["results"]["grading"]))

    # ---------------- memory BIST (none in System 2) ----------------
    bist = plan_memory_bist(soc)
    if bist.rows:
        for row in bist.rows:
            print(f"BIST {row.core}: {row.march}, {row.cycles} cycles")
    else:
        print("\n(no memory cores; BIST not required)")


if __name__ == "__main__":
    main()
