"""Timed sections and the per-stage self-time table of ``repro profile``.

:func:`profile_section` is the one way ``src/`` times code.  Each
section name keeps three running totals in the metrics registry --
calls, inclusive seconds, and self seconds (inclusive time minus the
time of the sections opened inside it on the same thread).  Nothing is
kept per call, so a section's cost in memory does not grow with its
calls.

Self times partition a run: the self times of every section opened
under a root section (``profile.total``) add up to the root's inclusive
time.  :func:`stage_rows` groups them by first dotted component into the
pipeline stages -- ``atpg.run`` and ``atpg.podem`` both roll up into
``atpg`` -- and reports the root's own self time as an explicit
``unaccounted`` row, so the rows sum to the run's total.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry, SectionTotals

#: the section spanning one pipeline run: its own self time is the
#: ``unaccounted`` row, and it is never a hotspot
ROOT_SECTION = "profile.total"

#: (display name, metric prefix) for every pipeline stage, in flow order
PIPELINE_STAGES: List[Tuple[str, str]] = [
    ("core-level", "corelevel"),
    ("transparency", "transparency"),
    ("chip-level", "chiplevel"),
    ("ATPG", "atpg"),
    ("fault-sim", "faultsim"),
    ("kernel", "kernel"),
    ("optimizer", "optimizer"),
    ("schedule", "schedule"),
]

#: section totals of the shared registry, cached so opening a section
#: skips the registry lookup (safe: ``reset()`` zeroes them in place)
_TOTALS: Dict[str, SectionTotals] = {}

class _OpenSections(threading.local):
    """Each thread's stack of open sections (innermost last)."""

    def __init__(self) -> None:
        self.stack: List[_Section] = []


_OPEN = _OpenSections()


class _Section:
    """One open section: adds its times to its totals when it exits."""

    __slots__ = ("_totals", "_stack", "_start", "_children", "_outermost")

    def __init__(self, totals: SectionTotals) -> None:
        self._totals = totals
        self._children = 0.0

    def __enter__(self) -> "_Section":
        stack = self._stack = _OPEN.stack
        totals = self._totals
        for section in stack:
            if section._totals is totals:
                self._outermost = False
                break
        else:
            self._outermost = True
        stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._start
        stack = self._stack
        stack.pop()  # ``with`` blocks exit innermost first
        if stack:
            stack[-1]._children += elapsed
        totals = self._totals
        totals.calls += 1
        totals.self_seconds += elapsed - self._children
        if self._outermost:
            totals.seconds += elapsed
        return False


def profile_section(name: str, registry: Optional[MetricsRegistry] = None) -> _Section:
    """Time a named section into ``registry`` (default: the shared one)."""
    if registry is None:
        totals = _TOTALS.get(name)
        if totals is None:
            totals = _TOTALS[name] = DEFAULT_REGISTRY.section(name)
    else:
        totals = registry.section(name)
    return _Section(totals)


# ----------------------------------------------------------------------
def stage_rows(
    registry: Optional[MetricsRegistry] = None,
    root: str = ROOT_SECTION,
    stages: Sequence[Tuple[str, str]] = tuple(PIPELINE_STAGES),
) -> List[Dict]:
    """Per-stage self seconds, section calls, and counters of one run.

    A stage's time is the self time of every ``<prefix>.*`` section.
    Sections under no stage prefix get a row per first dotted component
    after the pipeline stages, and the last row, ``unaccounted``, is the
    ``root`` section's own self time -- so the rows sum to its total.
    """
    registry = registry or DEFAULT_REGISTRY
    sections = registry.sections()
    counters = registry.counters()
    root_totals = sections.pop(root, {"count": 0, "self": 0.0})
    known = {prefix for _display, prefix in stages}
    extra = sorted({name.split(".", 1)[0] for name in sections} - known)

    def row(display: str, prefix: str) -> Dict:
        mine = [s for n, s in sections.items() if n.split(".", 1)[0] == prefix]
        return {
            "stage": display,
            "prefix": prefix,
            "self_seconds": sum(s["self"] for s in mine),
            "calls": sum(s["count"] for s in mine),
            "counters": {
                name[len(prefix) + 1 :]: value
                for name, value in counters.items()
                if value and name.startswith(prefix + ".")
            },
        }

    rows = [row(display, prefix) for display, prefix in stages]
    rows.extend(row(prefix, prefix) for prefix in extra)
    rows.append(
        {
            "stage": "unaccounted",
            "prefix": root,
            "self_seconds": root_totals["self"],
            "calls": root_totals["count"],
            "counters": {},
        }
    )
    return rows
