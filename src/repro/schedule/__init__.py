"""Concurrent test-session scheduling (beyond the paper's serial TAT).

The paper applies core tests one at a time; this package overlaps them
under a shared-resource conflict model (see :mod:`repro.schedule.conflicts`):

* :func:`build_test_items` derives each core test's resource set from a
  finished :class:`~repro.soc.plan.SocTestPlan`,
* two placements -- greedy list scheduling and session graph coloring,
  plain functions named in :data:`PLACEMENTS` -- put the items on one
  chip timeline (:mod:`repro.schedule.packers`),
* :func:`schedule_plan` runs one of them and returns a
  :class:`~repro.schedule.timeline.TestSchedule` with per-core start
  cycles, session makeup and a ``makespan`` that replaces the serial
  TAT sum; :meth:`TestSchedule.validate` is the one check of a schedule,
  run on every schedule built here,
* an optional scan-power budget caps concurrent activity from day one.

Chained topologies (System1/System2) serialize -- every core's test
borrows its neighbours' transparency -- while SOCs with independent
subsystems (System3/System4) overlap and the makespan drops.
"""

from repro.errors import ScheduleError
from repro.obs import METRICS, profile_section
from repro.schedule.conflicts import (
    Resource,
    TestItem,
    build_test_items,
    conflict_pairs,
    resource_set,
)
from repro.schedule.gantt import render_gantt
from repro.schedule.packers import PLACEMENTS
from repro.schedule.timeline import ScheduledTest, Session, TestSchedule

__all__ = [
    "Resource",
    "TestItem",
    "build_test_items",
    "conflict_pairs",
    "resource_set",
    "render_gantt",
    "PLACEMENTS",
    "ScheduledTest",
    "Session",
    "TestSchedule",
    "schedule_plan",
]

_ITEMS = METRICS.counter("schedule.items")
_SESSIONS = METRICS.counter("schedule.sessions.packed")


def schedule_plan(
    plan,
    algorithm: str = "greedy",
    power_budget=None,
    include_bist: bool = False,
) -> TestSchedule:
    """Schedule a finished SOC test plan into concurrent sessions.

    ``algorithm`` names a placement of :data:`PLACEMENTS`.  The plan's
    internal invariants are the ``plan.*`` lint rules' to check
    (:func:`repro.lint.lint_soc`); the schedule is checked here, by
    :meth:`TestSchedule.validate`.
    """
    items = build_test_items(plan, include_bist=include_bist)
    try:
        place = PLACEMENTS[algorithm]
    except KeyError:
        raise ScheduleError(
            f"unknown scheduler {algorithm!r}; choose from {sorted(PLACEMENTS)}"
        ) from None
    with profile_section("schedule.pack"):
        _ITEMS.inc(len(items))
        if power_budget is not None:
            worst = max(items, key=lambda i: i.activity, default=None)
            if worst is not None and worst.activity > power_budget:
                raise ScheduleError(
                    f"{worst.core} alone has scan activity {worst.activity} "
                    f"> power budget {power_budget}"
                )
        schedule = TestSchedule(
            soc_name=plan.soc.name,
            algorithm=algorithm,
            entries=place(items, power_budget),
            power_budget=power_budget,
        ).validate()
    _SESSIONS.inc(len(schedule.sessions()))
    return schedule
