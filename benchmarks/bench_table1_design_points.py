"""Table 1: design-space exploration details for System 1.

Paper rows (area overhead cells / TAT cycles / FC% / TEff%):

    Each core min. area (pt 1):     156 / 17,387 / 98.4 / 99.8
    Each core min. latency (pt 18): 325 /  3,818 / 98.4 / 99.8
    Min. chip TApp. (pt 17):        307 /  3,806 / 98.4 / 99.8

The flow driver's record names the characteristic points: every core at
its cheapest version (the paper's point 1), every core at its fastest
version, and the true minimum-TAT point -- plus the fewest-cells design,
reported as its own row because on System 1 it is not the all-cheapest
one.  The paper's punchline reproduces: picking every core's fastest
version is NOT the fastest chip (or at best ties it at higher cost).
Fault coverage is identical across points because the same precomputed
core test sets are delivered losslessly; it is measured once by
gate-level fault simulation of the ATPG patterns (see bench_table3).
"""

from __future__ import annotations

from conftest import record_bench, write_result

from repro.flow.profile import run_pipeline
from repro.util import render_table

#: (row label, the record's point name, the paper's cells / cycles)
ROWS = [
    ("Each core min. area", "all cheapest", "156 / 17387"),
    ("Fewest chip cells", "fewest cells", "-"),
    ("Each core min. latency", "all fastest", "325 / 3818"),
    ("Min. chip TApp.", "least TAT", "307 / 3806"),
]


def test_table1_design_points(benchmark, results_dir):
    run = benchmark.pedantic(run_pipeline, args=("System1",), rounds=1, iterations=1)
    points = run["results"]["points"]
    record_bench(results_dir, "table1_design_points", benchmark, points, runs=[run])

    text = render_table(
        ["Circuit description", "A.Ov.(cells)", "TApp.(cycles)", "paper (cells / cycles)"],
        [[label, points[name]["cells"], points[name]["tat"], paper]
         for label, name, paper in ROWS],
        title="Table 1: design space exploration for System 1",
    )
    write_result(results_dir, "table1_design_points", text)

    # the ordering relations the paper's table demonstrates
    cheapest, fewest, fastest, least = (points[name] for _label, name, _paper in ROWS)
    assert fewest["cells"] <= cheapest["cells"]
    assert cheapest["cells"] < fastest["cells"]
    assert cheapest["tat"] > fastest["tat"]
    assert least["tat"] <= fastest["tat"]
    assert least["cells"] < fastest["cells"]
