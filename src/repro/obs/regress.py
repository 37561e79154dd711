"""Statistical regression gates over the run ledger.

Compares a fresh run (the newest ledger record of each series) against
a baseline window of earlier records and answers one question per
series: *did this get slower, or did the work itself change?*  Two
independent gates:

* **Wall-time gate** -- a one-sided Mann-Whitney rank test of the
  candidate's raw per-round samples against the pooled baseline
  samples, cross-checked by a seeded-bootstrap confidence interval on
  the median ratio.  A regression needs *both* a practically large
  ratio (``min_ratio``) and statistical significance (``alpha``), so
  timing noise on an unchanged pipeline does not trip the gate.  When
  the candidate has too few samples for significance to be reachable
  (e.g. a single ``repro profile`` run), a stricter pure-threshold
  fallback (``small_sample_ratio``) applies instead.
* **Counter gate** -- deterministic counters (PODEM backtracks,
  reservation waits, plans evaluated, ...) are pure functions of the
  seed, so they are compared *exactly*: any added, removed, or changed
  counter is flagged as a correctness alarm, never as noise.
  Zero-valued counters are recorded by the ledger precisely so this
  gate can tell "zero" from "absent".

Environment fingerprints guard the wall-time gate: when the candidate
and baseline ran on different pythons/platforms/CPU counts the
wall-time verdict is downgraded to *advisory* (reported, not failing)
while the counter gate stays exact -- that is what makes a committed
cross-machine baseline usable in CI.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb, erfc, sqrt
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RegressionError
from repro.obs.ledger import RunLedger, pooled_samples
from repro.obs.metrics import DEFAULT_REGISTRY

_COMPARISONS = DEFAULT_REGISTRY.counter("regress.comparisons")
_REGRESSIONS = DEFAULT_REGISTRY.counter("regress.wall.regressions")
_DRIFTS = DEFAULT_REGISTRY.counter("regress.counter.drifts")

#: wall-gate modes: apply always, only on matching environments, or never
WALL_GATE_MODES = ("auto", "always", "off")


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


def min_reachable_p(n1: int, n2: int) -> float:
    """The smallest one-sided p these sample sizes can ever produce."""
    return 1.0 / comb(n1 + n2, n1)


def bootstrap_ratio_ci(
    candidate: Sequence[float],
    baseline: Sequence[float],
    resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI on ``median(candidate)/median(baseline)``."""
    if not candidate or not baseline:
        raise RegressionError("bootstrap needs non-empty samples on both sides")
    rng = random.Random(seed)
    ratios: List[float] = []
    for _ in range(resamples):
        cand = [rng.choice(candidate) for _ in candidate]
        base = [rng.choice(baseline) for _ in baseline]
        ratios.append(median(cand) / max(median(base), 1e-12))
    ratios.sort()
    alpha = (1.0 - confidence) / 2.0
    low_index = max(0, min(len(ratios) - 1, int(alpha * len(ratios))))
    high_index = max(0, min(len(ratios) - 1, int((1.0 - alpha) * len(ratios)) - 1))
    return ratios[low_index], ratios[high_index]


# ----------------------------------------------------------------------
# policy and verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GatePolicy:
    """Thresholds for the wall-time and counter gates."""

    #: baseline window: how many most-recent records to pool per series
    window: int = 5
    #: median ratio below which a slowdown is never flagged
    min_ratio: float = 1.25
    #: one-sided significance level for the rank test
    alpha: float = 0.05
    #: minimum pooled baseline samples before the wall gate applies
    min_samples: int = 3
    #: pure-threshold fallback when significance is unreachable
    small_sample_ratio: float = 2.0
    #: bootstrap resamples / confidence for the ratio CI
    resamples: int = 1000
    confidence: float = 0.95
    #: counter prefixes excluded from the exact gate.  The ``exec.``
    #: layer is execution-strategy bookkeeping -- plan-cache warmth --
    #: that depends on prior runs, not on the planned work.
    #: ``attrib.``/``explain.`` are the same execution-bookkeeping
    #: class: how many attribution records/explain runs happened depends
    #: on whether ``REPRO_ATTRIB`` was on, not on the planned work --
    #: the attributed *totals* are gated through the counters they
    #: reconcile against (``atpg.*``, ``faultsim.*``).
    counter_ignore: Tuple[str, ...] = ("exec.", "attrib.", "explain.")
    #: "auto" (downgrade on env mismatch), "always", or "off"
    wall_gate: str = "auto"
    #: exact counter comparison on/off
    counter_gate: bool = True

    def __post_init__(self) -> None:
        if self.wall_gate not in WALL_GATE_MODES:
            raise RegressionError(
                f"wall_gate must be one of {WALL_GATE_MODES}, got {self.wall_gate!r}"
            )


def env_compatible(a: Dict, b: Dict) -> bool:
    """Same python minor version, platform, and CPU count."""

    def minor(version: str) -> str:
        return ".".join(str(version).split(".")[:2])

    return (
        minor(a.get("python", "")) == minor(b.get("python", ""))
        and a.get("platform") == b.get("platform")
        and a.get("cpus") == b.get("cpus")
    )


@dataclass
class WallComparison:
    """Outcome of the wall-time gate for one series."""

    candidate_median: float
    baseline_median: float
    ratio: float
    p_value: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    tripped: bool = False
    advisory: bool = False
    note: str = ""


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
    """Every gate's outcome for one ledger series."""

    bench: str
    candidate_samples: int = 0
    baseline_samples: int = 0
    baseline_records: int = 0
    wall: Optional[WallComparison] = None
    drifts: List[CounterDrift] = field(default_factory=list)
    skipped: Optional[str] = None  # reason, when no comparison was possible

    @property
    def failed(self) -> bool:
        if self.drifts:
            return True
        return bool(self.wall and self.wall.tripped and not self.wall.advisory)

    @property
    def status(self) -> str:
        if self.skipped:
            return "skipped"
        labels = []
        if self.drifts:
            labels.append("drift")
        if self.wall and self.wall.tripped and not self.wall.advisory:
            labels.append("slower")
        if labels:
            return "+".join(labels)
        if self.wall and self.wall.tripped and self.wall.advisory:
            return "advisory"
        return "ok"

    def to_dict(self) -> Dict:
        payload: Dict = {
            "bench": self.bench,
            "status": self.status,
            "failed": self.failed,
            "candidate_samples": self.candidate_samples,
            "baseline_samples": self.baseline_samples,
            "baseline_records": self.baseline_records,
        }
        if self.skipped:
            payload["skipped"] = self.skipped
        if self.wall:
            payload["wall"] = {
                "candidate_median_s": self.wall.candidate_median,
                "baseline_median_s": self.wall.baseline_median,
                "ratio": self.wall.ratio,
                "p_value": self.wall.p_value,
                "ci": [self.wall.ci_low, self.wall.ci_high],
                "tripped": self.wall.tripped,
                "advisory": self.wall.advisory,
                "note": self.wall.note,
            }
        payload["counter_drifts"] = [
            {"counter": d.counter, "baseline": d.baseline, "candidate": d.candidate}
            for d in self.drifts
        ]
        return payload


# ----------------------------------------------------------------------
# the gates
# ----------------------------------------------------------------------
def compare_wall(
    candidate: Sequence[float],
    baseline: Sequence[float],
    policy: GatePolicy,
    advisory: bool = False,
) -> WallComparison:
    """Run the wall-time gate on raw samples (already pooled)."""
    candidate_median = median(candidate)
    baseline_median = median(baseline)
    ratio = candidate_median / max(baseline_median, 1e-12)
    result = WallComparison(
        candidate_median=candidate_median,
        baseline_median=baseline_median,
        ratio=ratio,
        advisory=advisory,
    )
    if ratio < policy.min_ratio:
        result.note = f"ratio {ratio:.3f} below min_ratio {policy.min_ratio}"
        return result
    if min_reachable_p(len(candidate), len(baseline)) > policy.alpha:
        # too few samples for the rank test to ever reach significance:
        # fall back to a stricter pure threshold
        result.tripped = ratio >= policy.small_sample_ratio
        result.note = (
            f"small-sample fallback (threshold {policy.small_sample_ratio}x)"
        )
        return result
    result.p_value = mann_whitney_p(candidate, baseline)
    result.ci_low, result.ci_high = bootstrap_ratio_ci(
        candidate,
        baseline,
        resamples=policy.resamples,
        confidence=policy.confidence,
    )
    result.tripped = result.p_value <= policy.alpha and result.ci_low > 1.0
    result.note = (
        f"p={result.p_value:.4f}, "
        f"ratio CI [{result.ci_low:.3f}, {result.ci_high:.3f}]"
    )
    return result


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
    baseline_records: Sequence[Dict],
    policy: Optional[GatePolicy] = None,
) -> BenchVerdict:
    """Every gate for one candidate record against its baseline window."""
    policy = policy or GatePolicy()
    verdict = BenchVerdict(
        bench=candidate["bench"],
        candidate_samples=len(candidate["samples"]),
        baseline_records=len(baseline_records),
    )
    if not baseline_records:
        verdict.skipped = "no baseline records"
        return verdict
    _COMPARISONS.inc()

    baseline = pooled_samples(baseline_records)
    verdict.baseline_samples = len(baseline)

    mismatched = any(
        not env_compatible(candidate["env"], record["env"])
        for record in baseline_records
    )

    # counter gate: exact match against the newest baseline record
    if policy.counter_gate:
        verdict.drifts = compare_counters(
            candidate["counters"],
            baseline_records[-1]["counters"],
            ignore=policy.counter_ignore,
        )
        if verdict.drifts:
            _DRIFTS.inc(len(verdict.drifts))

    # wall gate
    if policy.wall_gate != "off":
        advisory = policy.wall_gate == "auto" and mismatched
        if len(baseline) < policy.min_samples:
            verdict.wall = WallComparison(
                candidate_median=median(candidate["samples"]),
                baseline_median=median(baseline),
                ratio=median(candidate["samples"]) / max(median(baseline), 1e-12),
                advisory=advisory,
                note=(
                    f"baseline has {len(baseline)} samples "
                    f"(< min_samples {policy.min_samples}); gate not applied"
                ),
            )
        else:
            verdict.wall = compare_wall(
                candidate["samples"], baseline, policy, advisory=advisory
            )
            if advisory and verdict.wall.tripped:
                verdict.wall.note += "; environment mismatch: advisory only"
        if verdict.wall.tripped and not verdict.wall.advisory:
            _REGRESSIONS.inc()
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
        """0 clean, 1 regression/drift, 3 nothing could be compared."""
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
                rows.append([verdict.bench, "skipped", "-", "-", "-",
                             verdict.skipped])
                continue
            wall = verdict.wall
            detail = wall.note if wall else "wall gate off"
            if verdict.drifts:
                shown = ", ".join(d.describe() for d in verdict.drifts[:3])
                more = len(verdict.drifts) - 3
                detail = shown + (f" (+{more} more)" if more > 0 else "")
            rows.append(
                [
                    verdict.bench,
                    verdict.status,
                    f"{wall.ratio:.3f}x" if wall else "-",
                    f"{wall.candidate_median * 1000:.2f}ms" if wall else "-",
                    f"{wall.baseline_median * 1000:.2f}ms" if wall else "-",
                    detail,
                ]
            )
        table = render_table(
            ["series", "verdict", "ratio", "candidate", "baseline", "detail"],
            rows,
            title="Regression gates (wall-time + exact counters)",
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
    policy: Optional[GatePolicy] = None,
) -> RegressionReport:
    """Gate every series in ``candidate`` against ``baseline``.

    The candidate record is each series' newest entry.  With no
    separate baseline ledger, the same ledger's *earlier* records form
    the window -- the self-history mode the bench harness uses locally.
    """
    policy = policy or GatePolicy()
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
        latest = records[-1]
        if baseline is not None:
            window = baseline.window(bench, policy.window)
        else:
            window = candidate.window(bench, policy.window, before=len(records) - 1)
        report.verdicts.append(compare_records(latest, window, policy))
    return report
