"""End-to-end flows tying the library together.

* :mod:`repro.flow.system_netlist` -- flatten an SOC into one gate
  netlist (original, HSCAN'd, or full-scanned cores).
* :mod:`repro.flow.profile` -- the one flow driver: the paper's whole
  evaluation of one system (ATPG, the design space and its named
  points, optimization, schedules, the FSCAN-BSCAN baseline, the
  Table 2 and Table 3 rows), timed and attributed, returned as one
  ledger record that ``repro profile`` renders.
* :mod:`repro.flow.report` -- the paper's table rows and their text
  tables, and ``repro profile``'s run report of one pipeline record,
  those tables included.
"""

from repro.flow.system_netlist import flatten_soc
from repro.flow.profile import run_pipeline
from repro.flow.interconnect import (
    InterconnectReport,
    bus_interconnect_report,
    interconnect_report,
)
from repro.flow.report import (
    AreaRow,
    ScheduleRow,
    TestabilityRow,
    record_rows,
    render_area_table,
    render_grading_budget,
    render_run_report,
    render_schedule_table,
    render_session_table,
    render_stage_table,
    render_testability_table,
)

__all__ = [
    "flatten_soc",
    "run_pipeline",
    "InterconnectReport",
    "interconnect_report",
    "bus_interconnect_report",
    "AreaRow",
    "ScheduleRow",
    "TestabilityRow",
    "record_rows",
    "render_area_table",
    "render_grading_budget",
    "render_run_report",
    "render_schedule_table",
    "render_session_table",
    "render_stage_table",
    "render_testability_table",
]
