"""Scheduled test timelines: entries, sessions, validation, utilization.

A :class:`TestSchedule` assigns every test item a start cycle.  Entries
whose cycle windows overlap form *sessions* (maximal groups of
transitively overlapping tests, the unit Wu's methodology configures
the test controller for); the schedule's ``makespan`` replaces the
serial TAT sum whenever scheduling is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ScheduleError
from repro.schedule.conflicts import TestItem


@dataclass(frozen=True)
class ScheduledTest:
    """One test item placed on the chip-test timeline."""

    item: TestItem
    start: int

    @property
    def core(self) -> str:
        return self.item.core

    @property
    def end(self) -> int:
        return self.start + self.item.duration


@dataclass
class Session:
    """A maximal group of time-overlapping tests."""

    index: int
    entries: List[ScheduledTest]

    @property
    def start(self) -> int:
        return min(e.start for e in self.entries)

    @property
    def end(self) -> int:
        return max(e.end for e in self.entries)

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def utilization(self) -> float:
        """Mean concurrency over the session window (1.0 = serial)."""
        if self.length == 0:
            return 0.0
        return sum(e.item.duration for e in self.entries) / self.length


@dataclass
class TestSchedule:
    """A complete concurrent schedule for one SOC test plan."""

    __test__ = False  # not a pytest class, despite the name

    soc_name: str
    algorithm: str
    entries: List[ScheduledTest]
    power_budget: Optional[int] = None

    @property
    def makespan(self) -> int:
        """Scheduled TAT: the last response arrives at this cycle."""
        return max((e.end for e in self.entries), default=0)

    @property
    def serial_tat(self) -> int:
        """What the same tests cost applied one at a time."""
        return sum(e.item.duration for e in self.entries)

    @property
    def speedup(self) -> float:
        return self.serial_tat / self.makespan if self.makespan else 1.0

    @property
    def peak_activity(self) -> int:
        """Largest concurrent scan activity anywhere on the timeline."""
        peak = 0
        for probe in self.entries:
            active = sum(
                e.item.activity for e in self.entries
                if e.start <= probe.start < e.end
            )
            peak = max(peak, active)
        return peak

    def sessions(self) -> List[Session]:
        """Maximal groups of transitively overlapping tests, in time order."""
        ordered = sorted(self.entries, key=lambda e: (e.start, e.end, e.core))
        sessions: List[Session] = []
        current: List[ScheduledTest] = []
        current_end = None
        for e in ordered:
            if current_end is None or e.start < current_end:
                current.append(e)
                current_end = e.end if current_end is None else max(current_end, e.end)
            else:
                sessions.append(Session(index=len(sessions) + 1, entries=current))
                current, current_end = [e], e.end
        if current:
            sessions.append(Session(index=len(sessions) + 1, entries=current))
        return sessions

    def validate(self) -> "TestSchedule":
        """Assert no overlapping tests share a resource or break power.

        The one check of a schedule: raises :class:`ScheduleError` on the
        first violation; returns ``self`` so callers can chain.
        """
        ordered = sorted(self.entries, key=lambda e: e.start)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if b.start >= a.end:
                    break
                shared = a.item.resources & b.item.resources
                if shared:
                    raise ScheduleError(
                        f"{a.core} [{a.start},{a.end}) and {b.core} "
                        f"[{b.start},{b.end}) overlap but share {sorted(shared)[0]}"
                    )
        if self.power_budget is not None:
            for probe in ordered:
                active = [e for e in ordered if e.start <= probe.start < e.end]
                total = sum(e.item.activity for e in active)
                if total > self.power_budget:
                    names = ", ".join(e.core for e in active)
                    raise ScheduleError(
                        f"cycle {probe.start}: activity {total} of ({names}) "
                        f"exceeds power budget {self.power_budget}"
                    )
        return self
