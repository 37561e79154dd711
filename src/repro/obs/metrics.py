"""Process-local metrics: counters, gauges, and percentile histograms.

The registry is the always-on half of the observability layer: counting
is cheap enough (one integer add through a cached instrument object) to
leave enabled permanently, so every PODEM call, fault-sim batch, BFS
expansion, and scheduler reservation attempt is accounted for whether or
not a trace is being recorded.  Instruments are created once and cached
at module scope by the instrumented code::

    _BACKTRACKS = METRICS.counter("atpg.podem.backtracks")
    ...
    _BACKTRACKS.inc(result.backtracks)

``reset()`` zeroes instruments *in place* so those cached references
stay valid across benchmark iterations and ``repro profile`` runs.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Union

Number = Union[int, float]

#: the well-defined shape of an empty histogram summary: all keys
#: present, order statistics ``None`` (JSON ``null``)
EMPTY_SUMMARY: Dict[str, Optional[float]] = {
    "count": 0,
    "sum": 0.0,
    "min": None,
    "max": None,
    "mean": None,
    "p50": None,
    "p90": None,
    "p99": None,
}


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


class Gauge:
    """A point-in-time value (last cadence, current budget headroom)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self._value = value

    @property
    def value(self) -> Optional[Number]:
        return self._value

    def reset(self) -> None:
        self._value = None


class Histogram:
    """A distribution of observations with nearest-rank percentiles."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: Number) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return sum(self._values)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile of the observations (p in 0..100).

        An empty histogram has no ranks: the percentile is ``None``
        (never an exception), matching the ``None``-valued percentile
        fields of :meth:`summary` so callers and renderers share one
        well-defined empty shape.
        """
        if not self._values:
            return None
        ordered = sorted(self._values)
        if p <= 0:
            return ordered[0]
        if p >= 100:
            return ordered[-1]
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, Optional[float]]:
        """count / sum / min / max / mean / p50 / p90 / p99.

        Every key is always present; on an empty histogram the count is
        0, the sum 0.0, and the order statistics ``None``.
        """
        if not self._values:
            return dict(EMPTY_SUMMARY)
        return {
            "count": len(self._values),
            "sum": self.sum,
            "min": min(self._values),
            "max": max(self._values),
            "mean": self.sum / len(self._values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        self._values.clear()


class MetricsRegistry:
    """Create-or-get registry for named instruments (one flat namespace).

    Thread-safe for instrument creation; increments themselves rely on
    the GIL's atomicity for plain adds, which is all the hot paths need.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, Histogram, name)

    def _get(self, table, factory, name: str):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    for other in (self._counters, self._gauges, self._histograms):
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

    def histograms(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        return {
            name: h.summary()
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix) and h.count
        }

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view of every instrument with data.

        Unlike :meth:`histograms` (ledger records, where an empty
        histogram is dead weight), the snapshot keeps empty histograms
        as their well-defined empty summary, so the ``--metrics`` table
        lists every registered instrument.
        """
        return {
            "counters": {k: v for k, v in self.counters().items() if v},
            "gauges": {
                name: g.value
                for name, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument in place (cached references stay live)."""
        for table in (self._counters, self._gauges, self._histograms):
            for instrument in table.values():
                instrument.reset()


#: the process-wide registry every instrumented module shares
DEFAULT_REGISTRY = MetricsRegistry()
