"""Concurrent-schedule design rules: resource exclusivity and scan power.

These consume :meth:`~repro.schedule.timeline.TestSchedule.iter_violations`
-- the same predicate the scheduler's own ``validate()`` enforces -- but
report every violation as a structured diagnostic instead of raising on
the first, and attribute each to the cores involved.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.diagnostics import Severity, location
from repro.lint.registry import Finding, LintContext, Rule


def check_infeasible(ctx: LintContext) -> Iterator[Finding]:
    """sched.infeasible: the schedule layer could be built at all."""
    if ctx.schedule is None and ctx.schedule_error is not None:
        yield (
            location(ctx.system, "schedule"),
            f"test schedule cannot be built: {ctx.schedule_error}",
            "relax the power budget or fix the plan errors above",
        )


def check_resource_conflicts(ctx: LintContext) -> Iterator[Finding]:
    """sched.resource-conflict: overlapping tests never share a resource."""
    schedule = ctx.schedule
    if schedule is None:
        return
    for violation in schedule.iter_violations():
        if violation.kind != "resource":
            continue
        yield (
            location(
                ctx.system, ("schedule", schedule.algorithm),
                ("cores", "+".join(violation.cores)),
            ),
            violation.message,
            "shift one test past the other or re-run the scheduler",
        )


def check_power_budget(ctx: LintContext) -> Iterator[Finding]:
    """sched.power-budget: concurrent scan activity stays under budget."""
    schedule = ctx.schedule
    if schedule is None:
        return
    for violation in schedule.iter_violations():
        if violation.kind != "power":
            continue
        yield (
            location(
                ctx.system, ("schedule", schedule.algorithm),
                ("cores", "+".join(violation.cores)),
            ),
            violation.message,
            "stagger the offending sessions or raise the budget",
        )


RULES = (
    Rule("sched.infeasible", "schedule", Severity.ERROR,
         "the concurrent schedule can be constructed", check_infeasible),
    Rule("sched.resource-conflict", "schedule", Severity.ERROR,
         "overlapping tests occupy disjoint resources", check_resource_conflicts),
    Rule("sched.power-budget", "schedule", Severity.ERROR,
         "concurrent scan activity respects the budget", check_power_budget),
)
