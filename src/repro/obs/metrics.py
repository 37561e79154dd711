"""Process-local metrics: counters and timed-section totals.

The registry is the always-on half of the observability layer: counting
is cheap enough (one integer add through a cached instrument object) to
leave enabled permanently, so every PODEM call, fault-sim batch, BFS
expansion, and scheduler reservation attempt is accounted for in every
run.  Instruments are created once and cached at module scope by the
instrumented code::

    _BACKTRACKS = METRICS.counter("atpg.podem.backtracks")
    ...
    _BACKTRACKS.inc(result.backtracks)

Timed sections (:func:`repro.obs.profile_section`) keep three running
totals per section name -- calls, inclusive seconds, self seconds -- so
a section costs the same memory after one call as after a million.

``reset()`` zeroes instruments *in place* so those cached references
stay valid across benchmark iterations and ``repro profile`` runs.
"""

from __future__ import annotations

import threading
from typing import Dict, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (events, items, cycles)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: Number = 1) -> None:
        self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        self._value = 0


class SectionTotals:
    """Running totals of one timed section.

    ``seconds`` is inclusive wall time, counted once however deeply the
    section re-enters itself; ``self_seconds`` leaves out the time of the
    sections opened inside it on the same thread, so the self times of
    every section under a root add up to the root's inclusive time.
    """

    __slots__ = ("name", "calls", "seconds", "self_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def summary(self) -> Dict[str, Number]:
        """The ledger shape: ``count`` calls, ``sum`` inclusive, ``self``."""
        return {"count": self.calls, "sum": self.seconds, "self": self.self_seconds}

    def reset(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class MetricsRegistry:
    """Create-or-get registry for named instruments (one flat namespace).

    Thread-safe for instrument creation; increments themselves rely on
    the GIL's atomicity for plain adds, which is all the hot paths need.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._sections: Dict[str, SectionTotals] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get(self._counters, Counter, name)

    def section(self, name: str) -> SectionTotals:
        return self._get(self._sections, SectionTotals, name)

    def _get(self, table, factory, name: str):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    for other in (self._counters, self._sections):
                        if other is not table and name in other:
                            raise ValueError(
                                f"instrument {name!r} already registered with a different kind"
                            )
                    instrument = table[name] = factory(name)
        return instrument

    # ------------------------------------------------------------------
    def counters(self, prefix: str = "") -> Dict[str, Number]:
        """Counter values, optionally restricted to a dotted prefix."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def sections(self, prefix: str = "") -> Dict[str, Dict[str, Number]]:
        """Totals of every section that ran, optionally under a prefix."""
        return {
            name: s.summary()
            for name, s in sorted(self._sections.items())
            if name.startswith(prefix) and s.calls
        }

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view of every instrument with data."""
        return {
            "counters": {k: v for k, v in self.counters().items() if v},
            "sections": self.sections(),
        }

    def reset(self) -> None:
        """Zero every instrument in place (cached references stay live)."""
        for table in (self._counters, self._sections):
            for instrument in table.values():
                instrument.reset()


#: the process-wide registry every instrumented module shares
DEFAULT_REGISTRY = MetricsRegistry()
