"""Span tree and per-layer metrics of the traced benchmark run.

The traced run wraps each layer's public entry points where they are
*called*: a module attribute that callers look up at call time, or a
method on its class.  ``repro.atpg.combinational.podem`` is patched, not
only ``repro.atpg.podem.podem``, because ``CombinationalAtpg`` imported
the name into its own module.  Each call becomes one span kept in memory as
``[id, parent, op, name, start, end]``; ``op`` is None for set-up spans.
The program is never edited, and the untraced run installs no wrapper.

A span's self time is its duration minus its children's.  Every op has a
root span named ``op`` whose self time is the op's *unaccounted* time,
which no layer span covers, so the self times of an op's spans sum to the
op's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: the name of every op's root span
ROOT = "op"

#: (span name, module, attribute as its callers look it up)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("atpg.run", "repro.atpg.combinational", "CombinationalAtpg.run"),
    ("atpg.podem", "repro.atpg.combinational", "podem"),
    ("atpg.compact", "repro.atpg.combinational", "compact_patterns"),
    ("faults.simulator", "repro.faults.simulator", "FaultSimulator.run"),
    ("faults.kernel", "repro.faults.kernel", "grade_combinational"),
    ("grade.seq", "repro.faults.simulator", "sequential_fault_grade"),
    ("grade.kernel", "repro.faults.kernel", "grade_sequence_group"),
    ("gates.compile", "repro.gates.kernel", "CompiledProgram.__init__"),
    ("designs.build", "repro.designs.barcode", "build_system1"),
    ("designs.build", "repro.designs.system2", "build_system2"),
    ("designs.build", "repro.designs.system3", "build_system3"),
    ("designs.build", "repro.designs.system4", "build_system4"),
    ("dft.hscan", "repro.soc.core", "insert_hscan"),
    ("transparency", "repro.soc.core", "generate_versions"),
    ("soc.design_space", "repro.soc.optimizer", "design_space"),
    ("soc.plan", "repro.soc.optimizer", "plan_soc_test"),
    ("soc.ccg", "repro.soc.ccg", "build_ccg"),
    ("soc.ccg", "repro.soc.ccg", "shortest_justification"),
    ("soc.optimizer", "repro.soc.optimizer", "SocetOptimizer.minimize_tat"),
    ("soc.optimizer", "repro.soc.optimizer", "SocetOptimizer.minimize_area"),
    ("schedule", "repro.schedule", "schedule_plan"),
)

class SpanRecorder:
    """The spans of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: counters and wrapper targets the program no longer has
        self.absent: Set[str] = set()
        self._stack: List[list] = []
        self._op: Optional[int] = None
        self._ops = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self._op, name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> list:
        """Open the root span of the next op."""
        self._op = self._ops
        self._ops += 1
        return self._open(ROOT)

    def end_op(self, span: list) -> None:
        self._close(span)
        self._op = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced


def _resolve(module_name: str, attribute: str):
    """(owner, attribute, original) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(name)
    if not callable(original):
        return None
    return owner, name, original


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target with a span recorder; restore the originals on exit."""
    patched = []
    try:
        for span_name, module_name, attribute in TARGETS:
            found = _resolve(module_name, attribute)
            if found is None:
                recorder.absent.add(f"{module_name}.{attribute}")
                continue
            owner, name, original = found
            setattr(owner, name, recorder.wrap(span_name, original))
            patched.append(found)
        yield recorder
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span[1] is not None:
            covered[span[1]] = covered.get(span[1], 0.0) + span[5] - span[4]
    return {span[0]: span[5] - span[4] - covered.get(span[0], 0.0) for span in spans}


def self_seconds(spans: List[list], in_ops: bool) -> Dict[str, float]:
    """Self seconds per span name, over the ops' spans or the set-up's."""
    selves = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if (span[2] is not None) == in_ops:
            totals[span[3]] = totals.get(span[3], 0.0) + selves[span[0]]
    return totals


def layer_rows(spans: List[list], passes: int) -> Dict[str, float]:
    """Self ms per pass for every span name; the op roots' row is "unaccounted"."""
    return {
        ("unaccounted" if name == ROOT else name): 1e3 * seconds / passes
        for name, seconds in sorted(self_seconds(spans, in_ops=True).items())
    }


def counters() -> Dict[str, float]:
    """The program's counter values ({} if its registry is gone)."""
    try:
        from repro.obs import METRICS
    except ImportError:
        return {}
    return dict(METRICS.counters())


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def layer_values(
    recorder: SpanRecorder,
    counts: Dict[str, float],
    setup_counts: Dict[str, float],
    passes: int,
    sums: Dict[str, float],
    overhead_pct: float,
) -> Dict[str, float]:
    """The value of every per-layer metric.

    Times are self times and counts are counter deltas, both per pass of
    the op list, except ``gates.compile.ms`` and ``kernel.compiles``,
    which cover set-up, where the ops' kernel programs get compiled.  A
    counter the program no longer has reads 0 and is recorded as absent.
    """
    op_self = self_seconds(recorder.spans, in_ops=True)
    setup_self = self_seconds(recorder.spans, in_ops=False)

    def ms(name: str, *more: str) -> float:
        return 1e3 * sum(op_self.get(n, 0.0) for n in (name,) + more) / passes

    def count(name: str, table: Dict[str, float] = counts, per: int = passes) -> float:
        if name not in table:
            recorder.absent.add(name)
            return 0
        return table[name] / per

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    calls = count("atpg.podem.calls")
    aborts = count("atpg.podem.aborts")
    decisions = count("atpg.podem.decisions")
    accepted = count("optimizer.moves.accepted")
    rejected = count("optimizer.moves.rejected")
    hits = count("exec.cache.hits")
    misses = count("exec.cache.misses")
    op_wall = sum(span[5] - span[4] for span in recorder.spans if span[3] == ROOT)
    return {
        "atpg.podem.ms": ms("atpg.podem"),
        "atpg.podem.us_per_decision": 1e3 * ratio(ms("atpg.podem"), decisions),
        "atpg.podem.calls": calls,
        "atpg.podem.decisions": decisions,
        "atpg.podem.backtracks": count("atpg.podem.backtracks"),
        "atpg.podem.aborts": aborts,
        "atpg.podem.resolved_ratio": ratio(calls - aborts, calls),
        "atpg.faultsim.ms": ms("faults.simulator", "faults.kernel"),
        "faultsim.events": count("faultsim.events"),
        "faultsim.batches": count("faultsim.batches"),
        "atpg.compact.ms": ms("atpg.compact"),
        "atpg.run.self_ms": ms("atpg.run"),
        "atpg.random.yield": ratio(
            count("atpg.random.detected"), sums.get("faults_targeted", 0)
        ),
        "designs.build.ms": ms("designs.build"),
        "dft.hscan.ms": ms("dft.hscan"),
        "transparency.ms": ms("transparency"),
        "corelevel.hscan.insertions": count("corelevel.hscan.insertions"),
        "transparency.versions.synthesized": count("transparency.versions.synthesized"),
        "transparency.search.expansions": count("transparency.search.expansions"),
        "soc.design_space.self_ms": ms("soc.design_space"),
        "soc.plan.ms": ms("soc.plan"),
        "chiplevel.plans": count("chiplevel.plans"),
        "chiplevel.deliveries": count("chiplevel.deliveries"),
        "chiplevel.mux.fallbacks": count("chiplevel.mux.fallbacks"),
        "chiplevel.ccg.queries": count("chiplevel.ccg.queries"),
        "chiplevel.ccg.expansions": count("chiplevel.ccg.expansions"),
        "soc.optimizer.self_ms": ms("soc.optimizer"),
        "optimizer.accept_ratio": ratio(accepted, accepted + rejected),
        "optimizer.mux.escalations": count("optimizer.mux.escalations"),
        "exec.cache.hit_ratio": ratio(hits, hits + misses),
        "schedule.ms": ms("schedule"),
        "schedule.items": count("schedule.items"),
        "schedule.reservation.retries": count("schedule.reservation.retries"),
        "grade.seq.self_ms": ms("grade.seq"),
        "grade.detect_ratio": ratio(
            sums.get("faults_detected", 0), sums.get("faults_graded", 0)
        ),
        "faultsim.sequential.faults": count("faultsim.sequential.faults"),
        "grade.kernel.ms": ms("grade.kernel"),
        "gates.compile.ms": 1e3 * setup_self.get("gates.compile", 0.0),
        "kernel.compiles": count("kernel.compiles", setup_counts, 1),
        "kernel.cache.reuses": count("kernel.cache.reuses"),
        "trace.overhead_pct": overhead_pct,
        "op.unaccounted_pct": 100.0 * ratio(op_self.get(ROOT, 0.0), op_wall),
    }


def export(recorder: SpanRecorder, path: Path, header: Dict) -> None:
    """Write the header and every span (times in s from the first span)."""
    epoch = recorder.spans[0][4] if recorder.spans else 0.0
    document = dict(header)
    document["absent"] = sorted(recorder.absent)
    document["spans"] = [
        {
            "id": span[0], "parent": span[1], "op": span[2], "name": span[3],
            "start_s": span[4] - epoch, "end_s": span[5] - epoch,
        }
        for span in recorder.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document) + "\n")
