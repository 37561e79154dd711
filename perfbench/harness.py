"""One benchmark run: set-up, timed passes, oracle checks and metrics.

A run repeats the workload's fixed op list -- one *pass* -- back to back
until another pass would end after ``--seconds``: a closed loop with one
client, in one process, one op at a time.  Each op is timed from outside,
around its call into the program.  Before every op, outside its timing, a
fixed pure-Python probe measures how fast the host runs at that moment;
``wall_norm`` divides op time by probe time, which cancels the host-speed
drift that moves raw seconds from run to run.  ``setup_s`` is scaled the
same way, to seconds at the reference host speed.

Each op of the first pass goes through the workload's oracle right after
it runs (outside its timing); every later pass must repeat the first
pass's output digests exactly.  The oracle disturbs caches and the
allocator between ops, so the first pass is a checked warm-up: the time
metrics come from the later passes only.

The metric names and units are those of ``BENCHMARK.json``, read once.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import trace

_CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: metric name -> unit, in BENCHMARK.json order
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}

#: prepare() calls per untraced run; setup_s counts their median
SETUP_REPEATS = 5
#: an untraced run makes at least this many passes: the checked first
#: pass plus two timed ones, so that at least ten timed ops lie beyond
#: p90 even when one pass outlasts --seconds
MIN_PASSES = 3
#: iterations of the host-speed probe (a few ms of interpreter work)
PROBE_ITERATIONS = 20_000
#: probe calls whose median gives the host speed around a set-up step
PROBE_REPEATS = 5
#: the probe's seconds at the reference host speed (a 2-vCPU x86-64 VM,
#: Python 3.11): setup_s is set-up time scaled to that speed
REFERENCE_PROBE_S = 0.003


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    Dict updates, integer arithmetic and a sort: the interpreter work the
    workloads do.  It imports nothing from the program, so no change to
    the program can change it.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


def probe_median() -> float:
    """The median of a few probes: the host speed around one set-up step."""
    return statistics.median(probe() for _ in range(PROBE_REPEATS))


def timed_setup(step) -> Tuple[float, float]:
    """(seconds ``step()`` takes, probe seconds measured around it)."""
    before = probe_median()
    start = time.perf_counter()
    step()
    seconds = time.perf_counter() - start
    return seconds, (before + probe_median()) / 2.0


def in_contract(units: Dict[str, str], values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """The contract's metrics as (value, unit); one without a value raises."""
    return {name: (values[name], unit) for name, unit in units.items()}


@dataclass
class OpRecord:
    """One op of one pass."""

    seconds: float
    probe_seconds: float
    digest: Optional[tuple] = None
    problems: List[str] = field(default_factory=list)


@dataclass
class Result:
    """What one run measured; ``metrics`` maps a name to (value, unit)."""

    attempted: int
    failed: int
    problems: List[str]
    totals: Dict[str, float]
    metrics: Dict[str, Tuple[float, str]]
    passes: int
    #: untraced runs only: raw host times (context, not bounded metrics)
    raw: Optional[Dict[str, float]] = None
    #: traced runs only: the spans, and self ms per pass by layer
    recorder: Optional[trace.SpanRecorder] = None
    layers: Optional[Dict[str, float]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_pass(workload, recorder=None, check: bool = False) -> List[OpRecord]:
    """Run every op once; with ``check``, run the oracle after each op."""
    records = []
    for op in workload.ops:
        probe_seconds = probe()
        span = recorder.begin_op() if recorder is not None else None
        start = time.perf_counter()
        try:
            output = workload.run(op)
            error = None
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=-4)
        seconds = time.perf_counter() - start
        if span is not None:
            recorder.end_op(span)
        record = OpRecord(seconds, probe_seconds)
        if error is not None:
            record.problems.append(f"raised: {error}")
        else:
            record.digest = workload.digest(op, output)
            if check:
                record.problems.extend(_oracle(workload, op, output))
        records.append(record)
    return records


def _oracle(workload, op, output) -> List[str]:
    try:
        return workload.check(op, output)
    except Exception:
        return [f"oracle raised: {traceback.format_exc(limit=-4)}"]


def run_passes(workload, deadline: float, recorder=None, check_first: bool = False,
               min_passes: int = 1) -> List[List[OpRecord]]:
    """Passes until another one would end after ``deadline``."""
    passes: List[List[OpRecord]] = []
    while True:
        started = time.perf_counter()
        passes.append(run_pass(workload, recorder, check=check_first and not passes))
        finished = time.perf_counter()
        if len(passes) >= min_passes and finished + (finished - started) > deadline:
            return passes


def judge(passes: List[List[OpRecord]]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems): pass 1 by its oracle, later ones by identity."""
    reference = passes[0]
    failed, problems = 0, []
    for number, records in enumerate(passes, start=1):
        for index, (record, first) in enumerate(zip(records, reference)):
            issues = list(record.problems)
            if number > 1 and not issues and record.digest != first.digest:
                issues.append("output differs from pass 1")
            if issues:
                failed += 1
                problems.append(f"pass {number} op {index}: " + "; ".join(issues))
    return sum(len(records) for records in passes), failed, problems


def pass_totals(workload, records: List[OpRecord]) -> Dict[str, float]:
    """The workload's totals over the ops of one pass that produced output."""
    pairs = [(op, r.digest) for op, r in zip(workload.ops, records) if r.digest is not None]
    if not pairs:  # every op failed: the run is incorrect, its totals read 0
        return dict.fromkeys(END_TO_END, 0.0)
    ops, digests = zip(*pairs)
    return workload.totals(list(ops), list(digests))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def wall_norm(records: List[OpRecord]) -> float:
    """Op seconds over probe seconds for one pass."""
    return sum(r.seconds for r in records) / sum(r.probe_seconds for r in records)


def measure(workload_cls, seed: int, seconds: float, tiny: bool = False,
            imports: Tuple[float, float] = (0.0, 1.0)) -> Result:
    """The untraced run: the only source of end-to-end metrics.

    ``imports`` is the run's import time and the probe time around it, as
    :func:`timed_setup` gives them.  ``setup_s`` is the import time plus
    the median prepare(), each divided by its probe time, scaled to
    seconds at the reference host speed.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls(seed, tiny)
        setups.append(timed_setup(workload.prepare))
    passes = run_passes(
        workload, time.perf_counter() + seconds, check_first=True, min_passes=MIN_PASSES
    )
    attempted, failed, problems = judge(passes)
    sums = pass_totals(workload, passes[0])
    timed = passes[1:]
    op_seconds = [r.seconds for records in timed for r in records]
    # raw host seconds drift with the host's speed from run to run, and op
    # latencies with how the seed groups work into ops: both are printed
    # as context, not bounded metrics
    raw = {
        "wall_s": statistics.median(sum(r.seconds for r in rs) for rs in timed),
        "setup_s": imports[0] + statistics.median(s for s, _ in setups),
        "latency_p50_ms": 1e3 * percentile(op_seconds, 50),
        "latency_p90_ms": 1e3 * percentile(op_seconds, 90),
        "probe_ms": 1e3 * statistics.median(r.probe_seconds for rs in timed for r in rs),
        "ops": len(op_seconds),
    }
    setup_norm = imports[0] / imports[1] + statistics.median(s / p for s, p in setups)
    values = dict(sums)
    values.update({
        "wall_norm": statistics.median(wall_norm(rs) for rs in timed),
        "setup_s": REFERENCE_PROBE_S * setup_norm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return Result(
        attempted, failed, problems, sums, in_contract(END_TO_END, values), len(passes), raw=raw
    )


def measure_traced(workload_cls, seed: int, seconds: float, tiny: bool = False) -> Result:
    """The traced run: per-layer self times and counter deltas.

    Set-up runs traced (its spans carry no op), then one untraced
    reference pass -- the oracle's input and the baseline of the tracing
    overhead -- then traced passes until the time is up.
    """
    recorder = trace.SpanRecorder()
    workload = workload_cls(seed, tiny)
    before = trace.counters()
    with trace.installed(recorder):
        workload.prepare()
    setup_counts = trace.delta(before, trace.counters())
    deadline = time.perf_counter() + seconds
    reference = run_pass(workload, check=True)
    before = trace.counters()
    with trace.installed(recorder):
        traced = run_passes(workload, deadline, recorder)
    counts = trace.delta(before, trace.counters())
    attempted, failed, problems = judge([reference] + traced)
    sums = pass_totals(workload, traced[0])
    overhead = 100.0 * (
        statistics.median(wall_norm(rs) for rs in traced) / wall_norm(reference) - 1.0
    )
    values = trace.layer_values(recorder, counts, setup_counts, len(traced), sums, overhead)
    return Result(
        attempted, failed, problems, sums, in_contract(PER_LAYER, values), 1 + len(traced),
        recorder=recorder, layers=trace.layer_rows(recorder.spans, len(traced)),
    )
