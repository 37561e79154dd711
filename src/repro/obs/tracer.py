"""Span-based tracer exporting Chrome ``trace_event`` JSON and JSONL.

A :class:`Tracer` records *complete* spans (``ph: "X"``): each span has
a name, wall-clock start, duration, thread id, nesting depth, a stable
span id, a parent link, and free ``args``.  The output of
:meth:`Tracer.export_chrome` loads directly in ``chrome://tracing`` and
https://ui.perfetto.dev; :meth:`export_jsonl` writes one event per line
for ad-hoc ``jq``/pandas analysis.

Disabled is the default and the fast path: ``span()`` then returns a
shared no-op context manager without touching the clock, so leaving
``with TRACER.span("atpg.run"):`` in library code costs one attribute
check per call.  Spans nest naturally through the ``with`` statement;
a thread-local stack tracks depth and parent for the JSONL export
(Chrome infers nesting from timestamps on the same thread).  Span ids
are ``"<pid hex>-<seq hex>"``, unique within the trace.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: process-wide span-id sequence
_SPAN_IDS = itertools.count(1)


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; records itself on the tracer when the block exits."""

    __slots__ = (
        "tracer",
        "name",
        "args",
        "span_id",
        "_start_ns",
        "_depth",
        "_parent",
        "_parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, args: Dict) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.span_id: Optional[str] = None
        self._start_ns = 0
        self._depth = 0
        self._parent: Optional[str] = None
        self._parent_id: Optional[str] = None

    def set(self, **args) -> None:
        """Attach extra args (counters measured inside the block)."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack()
        self._depth = len(stack)
        if stack:
            self._parent, self._parent_id = stack[-1]
        self.span_id = f"{tracer.pid:x}-{next(_SPAN_IDS):x}"
        stack.append((self.name, self.span_id))
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end_ns = time.perf_counter_ns()
        stack = self.tracer._stack()
        if stack and stack[-1] == (self.name, self.span_id):
            stack.pop()
        self.tracer._record(
            {
                "name": self.name,
                "ph": "X",
                "ts": (self._start_ns - self.tracer.epoch_ns) / 1000.0,
                "dur": (end_ns - self._start_ns) / 1000.0,
                "pid": self.tracer.pid,
                "tid": threading.get_ident(),
                "cat": self.name.split(".", 1)[0],
                "args": dict(
                    self.args,
                    depth=self._depth,
                    parent=self._parent,
                    span_id=self.span_id,
                    parent_id=self._parent_id,
                ),
            }
        )
        return False


class Tracer:
    """Thread-safe span recorder; disabled (and near-free) by default."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.epoch_ns = time.perf_counter_ns()
        self.pid = os.getpid()
        self.trace_id = f"{self.pid:x}.{self.epoch_ns:x}"
        self._events: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def span(self, name: str, **args):
        """Context manager timing one section (no-op when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, args)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
        self.epoch_ns = time.perf_counter_ns()
        self.trace_id = f"{self.pid:x}.{self.epoch_ns:x}"

    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, event: Dict) -> None:
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    def events(self) -> List[Dict]:
        with self._lock:
            return list(self._events)

    def chrome_trace(self) -> Dict:
        """The ``trace_event`` document Perfetto/chrome://tracing load."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "metadata": {"trace_id": self.trace_id},
        }

    def export_chrome(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
        return path

    def export_jsonl(self, path: str) -> str:
        with open(path, "w") as handle:
            for event in self.events():
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def iter_spans(self, prefix: str = "") -> Iterator[Dict]:
        for event in self.events():
            if event["name"].startswith(prefix):
                yield event


def span_tree_problems(events: List[Dict]) -> List[str]:
    """Structural checks on a span set: ids and parent links.

    Returns human-readable problems; empty means every span id is
    unique and every non-root parent link resolves — i.e. zero orphan
    spans.  Events without ``args.span_id`` (foreign trace events) are
    ignored.
    """
    problems: List[str] = []
    ids: Dict[str, str] = {}
    for event in events:
        span_id = (event.get("args") or {}).get("span_id")
        if span_id is None:
            continue
        if span_id in ids:
            problems.append(
                f"duplicate span id {span_id!r} "
                f"({ids[span_id]!r} and {event['name']!r})"
            )
        ids[span_id] = event["name"]
    for event in events:
        args = event.get("args") or {}
        if args.get("span_id") is None:
            continue
        parent_id = args.get("parent_id")
        if parent_id is not None and parent_id not in ids:
            problems.append(
                f"orphan span {event['name']!r} "
                f"(parent id {parent_id!r} not in trace)"
            )
    return problems


#: the process-wide tracer shared by every instrumented module
DEFAULT_TRACER = Tracer()
