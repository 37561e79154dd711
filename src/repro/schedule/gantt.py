"""Text Gantt rendering of a test schedule (cycle occupancy per core)."""

from __future__ import annotations

from typing import List

from repro.schedule.timeline import TestSchedule

#: drawing width of the cycle axis, in characters
_AXIS_COLS = 60


def render_gantt(schedule: TestSchedule) -> str:
    """One bar per scheduled test, scaled to ``_AXIS_COLS`` columns.

    Example::

        GRAPHICS |######________________| 0..547
        GCD      |______########________| 547..1196
    """
    makespan = max(schedule.makespan, 1)
    name_width = max((len(e.core) for e in schedule.entries), default=4)
    lines: List[str] = [
        f"{schedule.soc_name}: {schedule.algorithm} schedule, "
        f"makespan {schedule.makespan} cycles "
        f"(serial {schedule.serial_tat}, {schedule.speedup:.2f}x)"
    ]
    for entry in sorted(schedule.entries, key=lambda e: (e.start, e.end, e.core)):
        lo = round(entry.start * _AXIS_COLS / makespan)
        hi = max(lo + 1, round(entry.end * _AXIS_COLS / makespan))
        bar = "_" * lo + "#" * (hi - lo) + "_" * (_AXIS_COLS - hi)
        tag = " bist" if entry.item.kind == "bist" else ""
        lines.append(
            f"{entry.core:<{name_width}} |{bar}| {entry.start}..{entry.end}{tag}"
        )
    scale = f"0{'cycles':^{_AXIS_COLS - 1}}{makespan}"
    lines.append(f"{' ' * name_width}  {scale}")
    for session in schedule.sessions():
        cores = ", ".join(sorted(e.core for e in session.entries))
        lines.append(
            f"session {session.index}: [{session.start}, {session.end}) "
            f"util {session.utilization:.2f} -- {cores}"
        )
    return "\n".join(lines)
