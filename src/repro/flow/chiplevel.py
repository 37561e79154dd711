"""Chip-level SOCET flow: plan, optimize, and report one SOC.

Produces the two extreme design points the paper's Table 2 uses (the
minimum-area chip and the minimum-test-time chip) plus the full design
space for Figure 10, and packages the area rows for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.baselines.fscan_bscan import FscanBscanReport, fscan_bscan_report
from repro.dft.hscan import insert_hscan
from repro.flow.report import AreaRow, ScheduleRow
from repro.obs import profile_section
from repro.schedule import TestSchedule
from repro.soc.optimizer import DesignPoint, design_space
from repro.soc.plan import SocTestPlan, plan_soc_test
from repro.soc.system import Soc


@dataclass
class SocetRun:
    """All chip-level results for one SOC."""

    soc: Soc
    points: List[DesignPoint]
    min_area_plan: SocTestPlan
    min_tat_plan: SocTestPlan
    baseline: FscanBscanReport
    #: concurrent-session schedules of the two extreme plans (greedy)
    min_area_schedule: Optional[TestSchedule] = None
    min_tat_schedule: Optional[TestSchedule] = None

    @property
    def min_area_point(self) -> DesignPoint:
        # select explicitly rather than trusting design_space's sort order
        return min(self.points, key=lambda p: (p.chip_cells, p.tat))

    @property
    def min_tat_point(self) -> DesignPoint:
        return min(self.points, key=lambda p: (p.tat, p.chip_cells))

    def schedule_rows(self) -> List[ScheduleRow]:
        """Serial vs scheduled TAT for both extreme plans."""
        rows = []
        for variant, plan, schedule in (
            ("Min. Area", self.min_area_plan, self.min_area_schedule),
            ("Min. TApp.", self.min_tat_plan, self.min_tat_schedule),
        ):
            if schedule is None:
                schedule = plan.schedule()
            rows.append(
                ScheduleRow(
                    system=self.soc.name,
                    variant=variant,
                    algorithm=schedule.algorithm,
                    serial_tat=plan.total_tat,
                    scheduled_tat=schedule.makespan,
                    sessions=len(schedule.sessions()),
                )
            )
        return rows

    def hscan_cells(self) -> int:
        """Core-level HSCAN area over all logic cores."""
        total = 0
        for core in self.soc.testable_cores():
            plan = core.hscan if core.hscan is not None else insert_hscan(core.circuit)
            total += plan.extra_area
        return total

    def area_rows(self) -> List[AreaRow]:
        original = self.soc.total_functional_area()
        rows = []
        for variant, plan in (
            ("Min. Area", self.min_area_plan),
            ("Min. TApp.", self.min_tat_plan),
        ):
            rows.append(
                AreaRow(
                    system=self.soc.name,
                    original_area=original,
                    fscan_cells=self.baseline.fscan_cells,
                    hscan_cells=self.hscan_cells(),
                    bscan_cells=self.baseline.bscan_cells,
                    socet_variant=variant,
                    socet_chip_cells=plan.chip_dft_cells,
                )
            )
        return rows


def schedule_points(
    points: List[DesignPoint],
    algorithm: str = "greedy",
    power_budget: Optional[int] = None,
    include_bist: bool = False,
) -> List[TestSchedule]:
    """Concurrent-session schedules for every design point, in order."""
    from repro.schedule import schedule_plan

    with profile_section("chiplevel.schedule_points"):
        return [
            schedule_plan(
                point.plan,
                algorithm=algorithm,
                power_budget=power_budget,
                include_bist=include_bist,
            )
            for point in points
        ]


def run_socet(soc: Soc) -> SocetRun:
    """Sweep the design space and pick the paper's two extreme points."""
    with profile_section("chiplevel.run_socet"):
        points = design_space(soc)
        min_area = min(points, key=lambda p: (p.chip_cells, p.tat))
        min_tat = min(points, key=lambda p: (p.tat, p.chip_cells))
        schedules = schedule_points([min_area, min_tat])
        return SocetRun(
            soc=soc,
            points=points,
            min_area_plan=min_area.plan,
            min_tat_plan=min_tat.plan,
            baseline=fscan_bscan_report(soc),
            min_area_schedule=schedules[0],
            min_tat_schedule=schedules[1],
        )
