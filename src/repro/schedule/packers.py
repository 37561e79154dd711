"""The schedulers: greedy list scheduling and session graph coloring.

Both consume the same :class:`TestItem` list and produce a validated
:class:`TestSchedule`:

* :class:`GreedyListScheduler` places the longest tests first at the
  earliest cycle where no conflicting test overlaps and the scan-power
  budget holds -- starts are staggered freely, like Wu's DSC scheduler.
* :class:`SessionPacker` colors the conflict graph (largest-degree
  first) so each color class becomes one test *session* whose members
  all start together, matching controllers that only sequence whole
  sessions; sessions run back to back.

The greedy scheduler's makespan is never worse than the packer's on the
same items, but the packer's schedule needs a simpler controller.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

from repro.errors import ScheduleError
from repro.obs import METRICS, profile_section
from repro.schedule.conflicts import TestItem
from repro.schedule.timeline import ScheduledTest, TestSchedule

logger = logging.getLogger("repro.schedule")

#: a start candidate rejected because a reserved resource was busy
_WAITS = METRICS.counter("schedule.reservation.waits")
#: alternate start candidates probed after the first choice failed
_RETRIES = METRICS.counter("schedule.reservation.retries")
_POWER_REJECTS = METRICS.counter("schedule.power.rejects")
_ITEMS = METRICS.counter("schedule.items")
_SESSIONS = METRICS.counter("schedule.sessions.packed")


class Scheduler:
    """Common interface: pack test items onto one chip-test timeline."""

    name = "abstract"

    def __init__(self, power_budget: Optional[int] = None) -> None:
        self.power_budget = power_budget

    def schedule(self, soc_name: str, items: List[TestItem]) -> TestSchedule:
        with profile_section("schedule.pack"):
            _ITEMS.inc(len(items))
            entries = self._place(self._check(items))
            schedule = TestSchedule(
                soc_name=soc_name,
                algorithm=self.name,
                entries=entries,
                power_budget=self.power_budget,
            ).validate()
        _SESSIONS.inc(len(schedule.sessions()))
        logger.debug(
            "%s/%s: %d items -> %d sessions, makespan %d",
            soc_name, self.name, len(items), len(schedule.sessions()), schedule.makespan,
        )
        return schedule

    def _place(self, items: List[TestItem]) -> List[ScheduledTest]:
        raise NotImplementedError

    def _check(self, items: List[TestItem]) -> List[TestItem]:
        if self.power_budget is not None:
            worst = max(items, key=lambda i: i.activity, default=None)
            if worst is not None and worst.activity > self.power_budget:
                raise ScheduleError(
                    f"{worst.core} alone has scan activity {worst.activity} "
                    f"> power budget {self.power_budget}"
                )
        return items


class GreedyListScheduler(Scheduler):
    """Longest-test-first list scheduling with free start staggering."""

    name = "greedy"

    def _place(self, items: List[TestItem]) -> List[ScheduledTest]:
        placed: List[ScheduledTest] = []
        for item in sorted(items, key=lambda i: (-i.duration, i.core)):
            placed.append(ScheduledTest(item=item, start=self._earliest(placed, item)))
        return placed

    def _earliest(self, placed: List[ScheduledTest], item: TestItem) -> int:
        candidates = sorted({0} | {e.end for e in placed})
        for index, start in enumerate(candidates):
            if self._fits(placed, item, start):
                _RETRIES.inc(index)
                return start
        _RETRIES.inc(len(candidates))
        return max(e.end for e in placed) if placed else 0

    def _fits(self, placed: List[ScheduledTest], item: TestItem, start: int) -> bool:
        end = start + item.duration
        overlapping = [e for e in placed if e.start < end and start < e.end]
        if any(e.item.resources & item.resources for e in overlapping):
            _WAITS.inc()
            return False
        if self.power_budget is None:
            return True
        # peak concurrent activity only changes at interval starts
        for probe in [start] + [e.start for e in overlapping if e.start >= start]:
            active = item.activity + sum(
                e.item.activity for e in placed if e.start <= probe < e.end
            )
            if active > self.power_budget:
                _POWER_REJECTS.inc()
                return False
        return True


class SessionPacker(Scheduler):
    """Conflict-graph coloring into back-to-back whole sessions."""

    name = "sessions"

    def _place(self, items: List[TestItem]) -> List[ScheduledTest]:
        order = sorted(
            items,
            key=lambda i: (-sum(i.conflicts_with(o) for o in items if o is not i),
                           -i.duration, i.core),
        )
        sessions: List[List[TestItem]] = []
        for item in order:
            for members in sessions:
                if any(item.conflicts_with(m) for m in members):
                    _WAITS.inc()
                    continue
                if (
                    self.power_budget is not None
                    and item.activity + sum(m.activity for m in members)
                    > self.power_budget
                ):
                    _POWER_REJECTS.inc()
                    continue
                members.append(item)
                break
            else:
                sessions.append([item])
        # longest sessions first: purely cosmetic, makespan is the sum
        sessions.sort(key=lambda ms: (-max(m.duration for m in ms),
                                      min(m.core for m in ms)))
        entries: List[ScheduledTest] = []
        start = 0
        for members in sessions:
            for member in members:
                entries.append(ScheduledTest(item=member, start=start))
            start += max(m.duration for m in members)
        return entries


#: registry used by the CLI and the plan-level convenience API
SCHEDULERS: Dict[str, type] = {
    GreedyListScheduler.name: GreedyListScheduler,
    SessionPacker.name: SessionPacker,
}


def get_scheduler(name: str, power_budget: Optional[int] = None) -> Scheduler:
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ScheduleError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls(power_budget=power_budget)
