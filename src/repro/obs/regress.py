"""The exact counter gate over the run ledger, plus a rank test.

``repro regress`` compares a fresh run (the newest ledger record of each
series) against the newest baseline record of the same series and
answers one question per series: *did the work itself change?*
Deterministic counters (PODEM backtracks, reservation waits, plans
evaluated, ...) are pure functions of the seed, so they are compared
*exactly*: any added, removed, or changed counter is flagged as a
correctness alarm, never as noise.  Zero-valued counters are recorded
by the ledger precisely so this gate can tell "zero" from "absent".

Wall time is not gated here: it moves with the host, and speed claims
are made on the end-to-end benchmark instead.  :func:`mann_whitney_p`,
a one-sided rank test on raw timing samples, stays for benches that
declare their own timing gate (``bench_explain``'s attribution
overhead).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, erfc, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RegressionError
from repro.obs.ledger import RunLedger
from repro.obs.metrics import DEFAULT_REGISTRY

_COMPARISONS = DEFAULT_REGISTRY.counter("regress.comparisons")
_DRIFTS = DEFAULT_REGISTRY.counter("regress.counter.drifts")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def rank_sum_u(candidate: Sequence[float], baseline: Sequence[float]) -> Tuple[float, bool]:
    """Mann-Whitney U of the candidate sample (midranks) and a tie flag."""
    tagged = sorted(
        [(value, 0) for value in candidate] + [(value, 1) for value in baseline]
    )
    ranks: List[float] = [0.0] * len(tagged)
    index = 0
    ties = False
    while index < len(tagged):
        stop = index
        while stop + 1 < len(tagged) and tagged[stop + 1][0] == tagged[index][0]:
            stop += 1
        midrank = (index + stop) / 2.0 + 1.0
        if stop > index:
            ties = True
        for position in range(index, stop + 1):
            ranks[position] = midrank
        index = stop + 1
    rank_total = sum(
        rank for rank, (_, group) in zip(ranks, tagged) if group == 0
    )
    n1 = len(candidate)
    u = rank_total - n1 * (n1 + 1) / 2.0
    return u, ties


def _exact_u_tail(u_observed: float, n1: int, n2: int) -> float:
    """Exact ``P(U >= u_observed)`` under H0 (no ties).

    The U distribution's counts are the coefficients of the Gaussian
    binomial ``C_q(n1+n2, n1)``, built up as the exact polynomial
    product of ``(1 - q^(n2+i)) / (1 - q^i)`` for ``i = 1..n1``.
    """
    degree = n1 * n2
    coeffs = [1] + [0] * degree
    for i in range(1, n1 + 1):
        shift = n2 + i
        # multiply by (1 - q^shift): descending so old values are read
        for j in range(degree, shift - 1, -1):
            coeffs[j] -= coeffs[j - shift]
        # divide by (1 - q^i): ascending cumulative sum with stride i
        for j in range(i, degree + 1):
            coeffs[j] += coeffs[j - i]
    total = comb(n1 + n2, n1)
    threshold = int(u_observed) if u_observed == int(u_observed) else int(u_observed) + 1
    tail = sum(coeffs[max(0, threshold):])
    return tail / total


def mann_whitney_p(candidate: Sequence[float], baseline: Sequence[float]) -> float:
    """One-sided p-value that the candidate is stochastically *greater*
    (slower) than the baseline.  Exact for small tie-free samples, a
    tie-corrected normal approximation otherwise."""
    n1, n2 = len(candidate), len(baseline)
    if not n1 or not n2:
        raise RegressionError("Mann-Whitney needs non-empty samples on both sides")
    u, ties = rank_sum_u(candidate, baseline)
    if not ties and n1 * n2 <= 10_000:
        return _exact_u_tail(u, n1, n2)
    # normal approximation with tie correction
    total = n1 + n2
    values = sorted(list(candidate) + list(baseline))
    tie_term = 0.0
    index = 0
    while index < len(values):
        stop = index
        while stop + 1 < len(values) and values[stop + 1] == values[index]:
            stop += 1
        size = stop - index + 1
        tie_term += size**3 - size
        index = stop + 1
    mean = n1 * n2 / 2.0
    variance = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return 1.0  # every observation identical: indistinguishable
    z = (u - mean - 0.5) / sqrt(variance)  # continuity-corrected
    return 0.5 * erfc(z / sqrt(2.0))


# ----------------------------------------------------------------------
# the counter gate
# ----------------------------------------------------------------------
#: counter prefixes the gate ignores.  ``exec.`` is execution-strategy
#: bookkeeping -- plan-cache warmth -- that depends on prior runs, not
#: on the planned work.  ``attrib.`` is the same class: how many
#: attribution records were kept depends on whether the collector was
#: on -- the attributed *totals* are gated through the counters they
#: reconcile against (``atpg.podem.*``).
COUNTER_IGNORE: Tuple[str, ...] = ("exec.", "attrib.")


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


def compare_records(
    candidate: Dict,
    baseline: Optional[Dict],
    ignore: Sequence[str] = COUNTER_IGNORE,
) -> BenchVerdict:
    """The counter gate for one candidate record against its baseline."""
    verdict = BenchVerdict(bench=candidate["bench"])
    if baseline is None:
        verdict.skipped = "no baseline record"
        return verdict
    _COMPARISONS.inc()
    verdict.drifts = compare_counters(
        candidate["counters"], baseline["counters"], ignore=ignore
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
    ignore: Sequence[str] = COUNTER_IGNORE,
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
    series = list(benches) if benches else candidate.benches()
    if benches:
        unknown = [name for name in series if not candidate.records(name)]
        if unknown:
            raise RegressionError(
                f"series {unknown} not present in {candidate.path}"
            )
    for bench in series:
        records = candidate.records(bench)
        if baseline is not None:
            previous = baseline.latest(bench)
        else:
            previous = records[-2] if len(records) > 1 else None
        report.verdicts.append(compare_records(records[-1], previous, ignore))
    return report
