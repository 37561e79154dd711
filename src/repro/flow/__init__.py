"""End-to-end flows tying the library together.

* :mod:`repro.flow.corelevel` -- the core provider's one-time job:
  HSCAN insertion, transparency versions, ATPG, area accounting.
* :mod:`repro.flow.system_netlist` -- flatten an SOC into one gate
  netlist (original, HSCAN'd, or full-scanned cores).
* :mod:`repro.flow.chiplevel` -- the SOC integrator's job: run the
  SOCET planner/optimizer and produce the paper's report rows.
* :mod:`repro.flow.evaluate` -- measure fault coverage / test
  efficiency for the original, HSCAN-only, FSCAN-BSCAN, and SOCET
  configurations (Table 3).
* :mod:`repro.flow.profile` -- the one pipeline run (every stage, timed
  and attributed) that ``repro profile``, ``report`` and ``explain``
  render.
"""

from repro.flow.corelevel import CorePreparation, prepare_core, prepare_cores
from repro.flow.system_netlist import flatten_soc
from repro.flow.chiplevel import SocetRun, run_socet, schedule_points
from repro.flow.evaluate import SystemEvaluation, evaluate_system
from repro.flow.profile import PipelineRun, run_pipeline
from repro.flow.interconnect import (
    InterconnectReport,
    bus_interconnect_report,
    interconnect_report,
)
from repro.flow.report import (
    AreaRow,
    ScheduleRow,
    TestabilityRow,
    render_area_table,
    render_metrics_table,
    render_schedule_table,
    render_session_table,
    render_stage_table,
    render_testability_table,
)

__all__ = [
    "CorePreparation",
    "prepare_core",
    "prepare_cores",
    "flatten_soc",
    "SocetRun",
    "run_socet",
    "schedule_points",
    "SystemEvaluation",
    "evaluate_system",
    "PipelineRun",
    "run_pipeline",
    "InterconnectReport",
    "interconnect_report",
    "bus_interconnect_report",
    "AreaRow",
    "ScheduleRow",
    "TestabilityRow",
    "render_area_table",
    "render_metrics_table",
    "render_schedule_table",
    "render_session_table",
    "render_stage_table",
    "render_testability_table",
]
