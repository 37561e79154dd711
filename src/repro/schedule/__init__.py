"""Concurrent test-session scheduling (beyond the paper's serial TAT).

The paper applies core tests one at a time; this package overlaps them
under a shared-resource conflict model (see :mod:`repro.schedule.conflicts`):

* :func:`build_test_items` derives each core test's resource set from a
  finished :class:`~repro.soc.plan.SocTestPlan`,
* two schedulers behind a common interface -- a greedy list scheduler
  and a session graph-coloring packer -- place the items on one chip
  timeline (:mod:`repro.schedule.packers`),
* the resulting :class:`~repro.schedule.timeline.TestSchedule` carries
  per-core start cycles, session makeup, a validator, and a ``makespan``
  that replaces the serial TAT sum,
* an optional scan-power budget caps concurrent activity from day one.

Chained topologies (System1/System2) serialize -- every core's test
borrows its neighbours' transparency -- while SOCs with independent
subsystems (System3/System4) overlap and the makespan drops.
"""

from repro.schedule.conflicts import (
    Resource,
    TestItem,
    build_test_items,
    conflict_pairs,
    resource_set,
)
from repro.schedule.gantt import render_gantt
from repro.schedule.packers import (
    SCHEDULERS,
    GreedyListScheduler,
    Scheduler,
    SessionPacker,
    get_scheduler,
)
from repro.schedule.timeline import (
    ScheduledTest,
    ScheduleViolation,
    Session,
    TestSchedule,
)

__all__ = [
    "Resource",
    "TestItem",
    "build_test_items",
    "conflict_pairs",
    "resource_set",
    "render_gantt",
    "SCHEDULERS",
    "GreedyListScheduler",
    "Scheduler",
    "SessionPacker",
    "get_scheduler",
    "ScheduledTest",
    "ScheduleViolation",
    "Session",
    "TestSchedule",
    "schedule_plan",
]


def schedule_plan(
    plan,
    algorithm: str = "greedy",
    power_budget=None,
    include_bist: bool = False,
) -> TestSchedule:
    """Schedule a finished SOC test plan into concurrent sessions.

    The plan's internal invariants are the ``plan.*`` lint rules' to
    check (:func:`repro.lint.lint_soc`).
    """
    items = build_test_items(plan, include_bist=include_bist)
    scheduler = get_scheduler(algorithm, power_budget=power_budget)
    return scheduler.schedule(plan.soc.name, items)
