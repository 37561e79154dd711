"""The exact counter gate over the run ledger.

``repro regress`` compares a fresh run (the newest ledger record of each
series) against the newest baseline record of the same series and
answers one question per series: *did the work itself change?*
Deterministic counters (PODEM backtracks, reservation waits, plans
evaluated, ...) are pure functions of the seed, so they are compared
*exactly*: any added, removed, or changed counter is flagged as a
correctness alarm, never as noise.  Zero-valued counters are recorded
by the ledger precisely so this gate can tell "zero" from "absent".

Wall time is not gated here: it moves with the host, and speed claims
are made on the end-to-end benchmark instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RegressionError
from repro.obs.ledger import RunLedger
from repro.obs.metrics import DEFAULT_REGISTRY

_COMPARISONS = DEFAULT_REGISTRY.counter("regress.comparisons")
_DRIFTS = DEFAULT_REGISTRY.counter("regress.counter.drifts")


# ----------------------------------------------------------------------
# the counter gate
# ----------------------------------------------------------------------
#: counter prefixes the gate ignores.  ``exec.`` is execution-strategy
#: bookkeeping -- plan-cache warmth -- that depends on prior runs, not
#: on the planned work.
COUNTER_IGNORE: Tuple[str, ...] = ("exec.",)


@dataclass
class CounterDrift:
    """One counter whose value changed against the baseline."""

    counter: str
    baseline: Optional[float]
    candidate: Optional[float]

    def describe(self) -> str:
        def show(value):
            return "absent" if value is None else value

        return f"{self.counter}: {show(self.baseline)} -> {show(self.candidate)}"


@dataclass
class BenchVerdict:
    """The counter gate's outcome for one ledger series."""

    bench: str
    drifts: List[CounterDrift] = field(default_factory=list)
    skipped: Optional[str] = None  # reason, when no comparison was possible

    @property
    def failed(self) -> bool:
        return bool(self.drifts)

    @property
    def status(self) -> str:
        if self.skipped:
            return "skipped"
        return "drift" if self.drifts else "ok"

    def to_dict(self) -> Dict:
        payload: Dict = {
            "bench": self.bench,
            "status": self.status,
            "failed": self.failed,
        }
        if self.skipped:
            payload["skipped"] = self.skipped
        payload["counter_drifts"] = [
            {"counter": d.counter, "baseline": d.baseline, "candidate": d.candidate}
            for d in self.drifts
        ]
        return payload


def compare_counters(
    candidate: Dict, baseline: Dict, ignore: Sequence[str] = ()
) -> List[CounterDrift]:
    """Exact counter comparison; every mismatch is a drift entry."""

    def keep(name: str) -> bool:
        return not any(name.startswith(prefix) for prefix in ignore)

    drifts: List[CounterDrift] = []
    for name in sorted(set(candidate) | set(baseline)):
        if not keep(name):
            continue
        base = baseline.get(name)
        cand = candidate.get(name)
        if base != cand:
            drifts.append(CounterDrift(name, base, cand))
    return drifts


def compare_records(candidate: Dict, baseline: Optional[Dict]) -> BenchVerdict:
    """The counter gate for one candidate record against its baseline."""
    verdict = BenchVerdict(bench=candidate["bench"])
    if baseline is None:
        verdict.skipped = "no baseline record"
        return verdict
    _COMPARISONS.inc()
    verdict.drifts = compare_counters(
        candidate["counters"], baseline["counters"], ignore=COUNTER_IGNORE
    )
    _DRIFTS.inc(len(verdict.drifts))
    return verdict


# ----------------------------------------------------------------------
# ledger-level comparison + report object
# ----------------------------------------------------------------------
@dataclass
class RegressionReport:
    """Per-series verdicts plus the ledger paths that produced them."""

    candidate_path: str
    baseline_path: Optional[str]
    verdicts: List[BenchVerdict] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(verdict.failed for verdict in self.verdicts)

    @property
    def compared(self) -> int:
        return sum(1 for verdict in self.verdicts if not verdict.skipped)

    def exit_code(self) -> int:
        """0 clean, 1 counter drift, 3 nothing could be compared."""
        if self.failed:
            return 1
        if not self.compared:
            return 3
        return 0

    def to_dict(self) -> Dict:
        return {
            "candidate_ledger": self.candidate_path,
            "baseline_ledger": self.baseline_path,
            "failed": self.failed,
            "compared": self.compared,
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        from repro.util import render_table

        rows = []
        for verdict in self.verdicts:
            if verdict.skipped:
                detail = verdict.skipped
            elif verdict.drifts:
                shown = ", ".join(d.describe() for d in verdict.drifts[:3])
                more = len(verdict.drifts) - 3
                detail = shown + (f" (+{more} more)" if more > 0 else "")
            else:
                detail = "every counter matches"
            rows.append([verdict.bench, verdict.status, detail])
        table = render_table(
            ["series", "verdict", "detail"],
            rows,
            title="Regression gate (exact counters)",
        )
        summary = (
            f"\n{self.compared} series compared, "
            f"{sum(1 for v in self.verdicts if v.failed)} failed "
            f"(candidate {self.candidate_path}, "
            f"baseline {self.baseline_path or 'same ledger'})"
        )
        return table + summary


def compare_ledgers(
    candidate: RunLedger,
    baseline: Optional[RunLedger] = None,
    benches: Optional[Sequence[str]] = None,
) -> RegressionReport:
    """Gate every series in ``candidate`` against ``baseline``.

    The candidate record is each series' newest entry; its baseline is
    the newest record of the same series in ``baseline``, or -- with no
    separate baseline ledger -- the same ledger's record before it (the
    self-history mode the bench harness uses locally).
    """
    report = RegressionReport(
        candidate_path=candidate.path,
        baseline_path=baseline.path if baseline is not None else None,
    )
    fresh = _by_series(candidate)
    series = list(benches) if benches else sorted(fresh)
    unknown = [name for name in series if name not in fresh]
    if unknown:
        raise RegressionError(f"series {unknown} not present in {candidate.path}")
    history = _by_series(baseline) if baseline is not None else None
    for bench in series:
        records = fresh[bench]
        if history is not None:
            previous = history[bench][-1] if bench in history else None
        else:
            previous = records[-2] if len(records) > 1 else None
        report.verdicts.append(compare_records(records[-1], previous))
    return report


def _by_series(ledger: RunLedger) -> Dict[str, List[Dict]]:
    """The ledger's records grouped by series, oldest first."""
    grouped: Dict[str, List[Dict]] = {}
    for record in ledger.records():
        grouped.setdefault(record["bench"], []).append(record)
    return grouped
