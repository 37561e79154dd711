"""The two placements: greedy list scheduling and session graph coloring.

Each is a plain function ``(items, budget) -> entries`` that puts every
:class:`TestItem` on one chip timeline:

* :func:`greedy` places the longest tests first at the earliest cycle
  where no conflicting test overlaps and the scan-power budget holds --
  starts are staggered freely, like Wu's DSC scheduler.
* :func:`sessions` colors the conflict graph (largest-degree first) so
  each color class becomes one test *session* whose members all start
  together, matching controllers that only sequence whole sessions;
  sessions run back to back.

:data:`PLACEMENTS` names both; :func:`repro.schedule.schedule_plan`
looks one up, checks the budget against every single item, and
validates what it places.  The greedy makespan is never worse than the
packer's on the same items, but the packer's schedule needs a simpler
controller.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs import METRICS
from repro.schedule.conflicts import TestItem
from repro.schedule.timeline import ScheduledTest

#: a start candidate rejected because a reserved resource was busy
_WAITS = METRICS.counter("schedule.reservation.waits")
#: alternate start candidates probed after the first choice failed
_RETRIES = METRICS.counter("schedule.reservation.retries")
_POWER_REJECTS = METRICS.counter("schedule.power.rejects")


def greedy(items: List[TestItem], budget: Optional[int]) -> List[ScheduledTest]:
    """Longest-test-first list scheduling with free start staggering.

    The latest end among the placed tests always fits: nothing overlaps
    it, and every item alone is within the budget.
    """
    placed: List[ScheduledTest] = []
    for item in sorted(items, key=lambda i: (-i.duration, i.core)):
        candidates = sorted({0} | {e.end for e in placed})
        for index, start in enumerate(candidates):
            if _fits(placed, item, start, budget):
                _RETRIES.inc(index)
                break
        placed.append(ScheduledTest(item=item, start=start))
    return placed


def _fits(
    placed: List[ScheduledTest], item: TestItem, start: int, budget: Optional[int]
) -> bool:
    end = start + item.duration
    overlapping = [e for e in placed if e.start < end and start < e.end]
    if any(e.item.resources & item.resources for e in overlapping):
        _WAITS.inc()
        return False
    if budget is None:
        return True
    # peak concurrent activity only changes at interval starts
    for probe in [start] + [e.start for e in overlapping if e.start >= start]:
        active = item.activity + sum(
            e.item.activity for e in placed if e.start <= probe < e.end
        )
        if active > budget:
            _POWER_REJECTS.inc()
            return False
    return True


def sessions(items: List[TestItem], budget: Optional[int]) -> List[ScheduledTest]:
    """Conflict-graph coloring into back-to-back whole sessions."""
    order = sorted(
        items,
        key=lambda i: (-sum(i.conflicts_with(o) for o in items if o is not i),
                       -i.duration, i.core),
    )
    groups: List[List[TestItem]] = []
    for item in order:
        for members in groups:
            if any(item.conflicts_with(m) for m in members):
                _WAITS.inc()
                continue
            if budget is not None and item.activity + sum(m.activity for m in members) > budget:
                _POWER_REJECTS.inc()
                continue
            members.append(item)
            break
        else:
            groups.append([item])
    # longest sessions first: purely cosmetic, makespan is the sum
    groups.sort(key=lambda ms: (-max(m.duration for m in ms), min(m.core for m in ms)))
    entries: List[ScheduledTest] = []
    start = 0
    for members in groups:
        for member in members:
            entries.append(ScheduledTest(item=member, start=start))
        start += max(m.duration for m in members)
    return entries


#: every placement by name: ``plan.schedule(algorithm=...)`` and
#: ``repro schedule -a`` choose from these
PLACEMENTS: Dict[str, Callable[[List[TestItem], Optional[int]], List[ScheduledTest]]] = {
    "greedy": greedy,
    "sessions": sessions,
}
