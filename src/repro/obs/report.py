"""Run reports: waterfall, hotspots, and counter diff as markdown/HTML.

A :class:`RunReport` combines the three views the observatory produces
for one measured run:

* a **stage waterfall** derived from trace spans -- when each pipeline
  stage first started, when it last finished, and how much span time it
  accumulated, drawn as horizontal bars on the run's timeline;
* **top-k hotspots** from the profiler's ``<section>.time`` histograms
  (total seconds, calls, mean, max per instrumented section);
* a **counter diff** against a baseline ledger record -- every counter
  that changed, appeared, or disappeared, plus how many matched.

Reports render to GitHub-flavoured markdown (:meth:`RunReport.to_markdown`)
or a dependency-free standalone HTML page (:meth:`RunReport.to_html`);
``repro report`` writes either and CI uploads them as artifacts.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PIPELINE_STAGES
from repro.obs.regress import compare_counters

#: width (characters) of the markdown waterfall bars
_BAR_COLUMNS = 48


# ----------------------------------------------------------------------
# view extraction
# ----------------------------------------------------------------------
def stage_waterfall(
    trace_events: Sequence[Dict],
    stages: Sequence[Tuple[str, str]] = tuple(PIPELINE_STAGES),
) -> List[Dict]:
    """Per-stage timeline rows from Chrome trace events.

    ``start``/``end`` are seconds relative to the earliest span in the
    trace; ``busy`` sums the durations of the stage's outermost spans
    (minimum recorded depth), so nested re-entries are not counted
    twice.  Stages with no spans are omitted.
    """
    if not trace_events:
        return []
    origin = min(event["ts"] for event in trace_events)
    rows: List[Dict] = []
    for display, prefix in stages:
        spans = [
            event
            for event in trace_events
            if event["name"] == prefix or event["name"].startswith(prefix + ".")
        ]
        if not spans:
            continue
        min_depth = min(event.get("args", {}).get("depth", 0) for event in spans)
        busy_us = sum(
            event["dur"]
            for event in spans
            if event.get("args", {}).get("depth", 0) == min_depth
        )
        rows.append(
            {
                "stage": display,
                "prefix": prefix,
                "start": (min(event["ts"] for event in spans) - origin) / 1e6,
                "end": (max(event["ts"] + event["dur"] for event in spans) - origin)
                / 1e6,
                "busy": busy_us / 1e6,
                "spans": len(spans),
            }
        )
    return rows


def hotspots(registry: MetricsRegistry, top_k: int = 10) -> List[Dict]:
    """The ``top_k`` instrumented sections by total time."""
    rows = []
    for name, summary in registry.histograms().items():
        if not name.endswith(".time"):
            continue
        rows.append(
            {
                "section": name[: -len(".time")],
                "seconds": summary["sum"],
                "calls": int(summary["count"]),
                "mean": summary["mean"],
                "max": summary["max"],
            }
        )
    rows.sort(key=lambda row: (-row["seconds"], row["section"]))
    return rows[:top_k]


def counter_diff(candidate: Dict, baseline: Optional[Dict]) -> Dict:
    """Changed/added/removed counters vs a baseline record's counters."""
    if baseline is None:
        return {"available": False, "changed": [], "unchanged": len(candidate)}
    drifts = compare_counters(candidate, baseline, ignore=())
    changed = [
        {"counter": d.counter, "baseline": d.baseline, "candidate": d.candidate}
        for d in drifts
    ]
    matched = len(set(candidate) & set(baseline)) - sum(
        1 for d in drifts if d.baseline is not None and d.candidate is not None
    )
    return {"available": True, "changed": changed, "unchanged": matched}


def attrib_views(artifact: Optional[Dict]) -> Optional[Dict]:
    """Renderable rows from a ``repro-attrib`` artifact (or ``None``).

    Three views, one per attribution plane: the hard-fault table as-is
    (already ranked and truncated to top-k by the builder), simulation
    buckets ranked by total words touched, and the optimizer convergence
    summary flattened to label/value pairs.
    """
    if not artifact:
        return None
    planes = artifact.get("planes", {})
    atpg = planes.get("atpg", {})
    sim = planes.get("sim", {})
    optimizer = planes.get("optimizer", {}).get("summary", {})
    buckets = [
        {
            "bucket": bucket,
            "good_words": row["good_words"],
            "sweep_words": row["sweep_words"],
            "total": row["good_words"] + row["sweep_words"],
        }
        for bucket, row in sorted(sim.get("buckets", {}).items())
    ]
    buckets.sort(key=lambda row: (-row["total"], row["bucket"]))
    totals = atpg.get("totals", {})
    convergence = [
        ("candidate moves", optimizer.get("candidates", 0)),
        ("accepted", optimizer.get("accepted", 0)),
        ("rejected", optimizer.get("rejected", 0)),
        ("design-point revisits", optimizer.get("revisits", 0)),
        ("trailing plateau", optimizer.get("plateau", 0)),
        ("wasted-move ratio", optimizer.get("wasted_ratio", 0.0)),
    ]
    return {
        "hard_faults": list(atpg.get("hard_faults", [])),
        "atpg_totals": totals,
        "sim_buckets": buckets,
        "sim_scalars": {
            "cone_walks": sim.get("cone_walks", 0),
            "good_batches": sim.get("good_batches", 0),
            "sweep_candidates": sim.get("sweep_candidates", 0),
        },
        "convergence": convergence,
        "move_yield": [
            {"kind": kind, **row}
            for kind, row in sorted(optimizer.get("yield", {}).items())
        ],
    }


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """One run's observability views, renderable as markdown or HTML."""

    title: str
    record: Dict  # the run's ledger record
    baseline: Optional[Dict] = None  # baseline ledger record, if any
    waterfall: List[Dict] = field(default_factory=list)
    hotspots: List[Dict] = field(default_factory=list)
    summary: Dict = field(default_factory=dict)  # headline plan numbers

    def __post_init__(self) -> None:
        self.diff = counter_diff(
            self.record.get("counters", {}),
            self.baseline.get("counters") if self.baseline else None,
        )
        self.attrib = attrib_views(self.record.get("attrib"))

    # ------------------------------------------------------------------
    def _header_facts(self) -> List[Tuple[str, str]]:
        record = self.record
        env = record.get("env", {})
        wall = sum(record["samples"]) / len(record["samples"])
        facts = [
            ("series", record["bench"]),
            ("timestamp", record["timestamp"]),
            ("git sha", (record.get("git_sha") or "unversioned")[:12]),
            ("wall time", f"{wall:.3f}s over {len(record['samples'])} sample(s)"),
            (
                "environment",
                f"python {env.get('python')}, {env.get('platform')}, "
                f"{env.get('cpus')} CPUs",
            ),
        ]
        if self.baseline:
            facts.append(
                (
                    "baseline",
                    f"{self.baseline['timestamp']} "
                    f"({(self.baseline.get('git_sha') or 'unversioned')[:12]})",
                )
            )
        return facts

    def _waterfall_scale(self) -> float:
        return max((row["end"] for row in self.waterfall), default=0.0)

    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        lines = [f"# Run report — {self.title}", ""]
        for key, value in self._header_facts():
            lines.append(f"- **{key}**: {value}")
        lines.append("")

        if self.summary:
            lines.append("## Plan summary")
            lines.append("")
            lines.append("| metric | value |")
            lines.append("| --- | ---: |")
            for key, value in self.summary.items():
                lines.append(f"| {key} | {value} |")
            lines.append("")

        if self.waterfall:
            lines.append("## Stage waterfall")
            lines.append("")
            total = self._waterfall_scale()
            lines.append("```text")
            width = max(len(row["stage"]) for row in self.waterfall)
            for row in self.waterfall:
                offset = int(_BAR_COLUMNS * row["start"] / total) if total else 0
                extent = max(
                    1, int(_BAR_COLUMNS * (row["end"] - row["start"]) / total)
                ) if total else 1
                bar = " " * offset + "█" * min(extent, _BAR_COLUMNS - offset)
                lines.append(
                    f"{row['stage']:<{width}}  |{bar:<{_BAR_COLUMNS}}| "
                    f"{row['busy'] * 1000:9.1f} ms  ({row['spans']} spans)"
                )
            lines.append("```")
            lines.append(
                "Bars show first-start to last-finish on the run timeline; "
                "times are the stage's outermost span totals (stages nest)."
            )
            lines.append("")

        if self.hotspots:
            lines.append("## Hotspots (top sections by total time)")
            lines.append("")
            lines.append("| section | total (ms) | calls | mean (ms) | max (ms) |")
            lines.append("| --- | ---: | ---: | ---: | ---: |")
            for row in self.hotspots:
                lines.append(
                    f"| `{row['section']}` | {row['seconds'] * 1000:.1f} "
                    f"| {row['calls']} | {row['mean'] * 1000:.2f} "
                    f"| {row['max'] * 1000:.2f} |"
                )
            lines.append("")

        if self.attrib:
            views = self.attrib
            lines.append("## Search-effort attribution")
            lines.append("")
            totals = views["atpg_totals"]
            lines.append(
                f"ATPG: {totals.get('calls', 0)} PODEM calls, "
                f"{totals.get('effort', 0)} effort units "
                f"({totals.get('decisions', 0)} decisions, "
                f"{totals.get('backtracks', 0)} backtracks, "
                f"{totals.get('implications', 0)} implications)."
            )
            lines.append("")
            if views["hard_faults"]:
                lines.append("### Hardest faults")
                lines.append("")
                lines.append(
                    "| fault | site | kind | depth | effort | backtracks "
                    "| status | abort cause |"
                )
                lines.append("| --- | --- | --- | ---: | ---: | ---: | --- | --- |")
                for row in views["hard_faults"]:
                    lines.append(
                        f"| `{row['fault']}` | {row['site']} | {row['gate_kind']} "
                        f"| {row['cone_depth']} | {row['effort']} "
                        f"| {row['backtracks']} | {row['status']} "
                        f"| {row['abort_cause'] or '—'} |"
                    )
                lines.append("")
            if views["sim_buckets"]:
                scalars = views["sim_scalars"]
                lines.append("### Simulation work by (level, gate kind)")
                lines.append("")
                lines.append(
                    f"{scalars['good_batches']} good-value batches, "
                    f"{scalars['sweep_candidates']} survivor-sweep candidates, "
                    f"{scalars['cone_walks']} detection-cone walks."
                )
                lines.append("")
                lines.append("| level:kind | good words | sweep words | total |")
                lines.append("| --- | ---: | ---: | ---: |")
                for row in views["sim_buckets"][:10]:
                    lines.append(
                        f"| `{row['bucket']}` | {row['good_words']} "
                        f"| {row['sweep_words']} | {row['total']} |"
                    )
                lines.append("")
            lines.append("### Optimizer convergence")
            lines.append("")
            lines.append("| metric | value |")
            lines.append("| --- | ---: |")
            for label, value in views["convergence"]:
                lines.append(f"| {label} | {value} |")
            for row in views["move_yield"]:
                lines.append(
                    f"| `{row['kind']}` moves accepted | "
                    f"{row['accepted']}/{row['candidates']} |"
                )
            lines.append("")

        lines.append("## Counters vs baseline")
        lines.append("")
        if not self.diff["available"]:
            lines.append("_No baseline record available; counter diff skipped._")
        elif not self.diff["changed"]:
            lines.append(
                f"All {self.diff['unchanged']} counters match the baseline "
                "exactly (deterministic pipeline, unchanged work)."
            )
        else:
            lines.append("| counter | baseline | current |")
            lines.append("| --- | ---: | ---: |")
            for row in self.diff["changed"]:
                base = "absent" if row["baseline"] is None else row["baseline"]
                cand = "absent" if row["candidate"] is None else row["candidate"]
                lines.append(f"| `{row['counter']}` | {base} | {cand} |")
            lines.append("")
            lines.append(f"{self.diff['unchanged']} counters unchanged.")
        lines.append("")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_html(self) -> str:
        def esc(value) -> str:
            return _html.escape(str(value))

        parts = [
            "<!doctype html>",
            "<html><head><meta charset='utf-8'>",
            f"<title>Run report — {esc(self.title)}</title>",
            "<style>",
            "body{font:14px/1.5 system-ui,sans-serif;margin:2rem;max-width:60rem}",
            "table{border-collapse:collapse;margin:0.5rem 0}",
            "td,th{border:1px solid #ccc;padding:0.25rem 0.6rem;text-align:right}",
            "td:first-child,th:first-child{text-align:left}",
            ".lane{position:relative;height:1.2rem;background:#f2f2f2;"
            "width:32rem;display:inline-block;vertical-align:middle}",
            ".bar{position:absolute;top:0.15rem;height:0.9rem;background:#4a7fb5}",
            "code{background:#f5f5f5;padding:0 0.2rem}",
            "</style></head><body>",
            f"<h1>Run report — {esc(self.title)}</h1>",
            "<ul>",
        ]
        for key, value in self._header_facts():
            parts.append(f"<li><b>{esc(key)}</b>: {esc(value)}</li>")
        parts.append("</ul>")

        if self.summary:
            parts.append("<h2>Plan summary</h2><table>")
            parts.append("<tr><th>metric</th><th>value</th></tr>")
            for key, value in self.summary.items():
                parts.append(f"<tr><td>{esc(key)}</td><td>{esc(value)}</td></tr>")
            parts.append("</table>")

        if self.waterfall:
            parts.append("<h2>Stage waterfall</h2><table>")
            parts.append(
                "<tr><th>stage</th><th>timeline</th><th>busy (ms)</th>"
                "<th>spans</th></tr>"
            )
            total = self._waterfall_scale() or 1.0
            for row in self.waterfall:
                left = 100.0 * row["start"] / total
                width = max(0.5, 100.0 * (row["end"] - row["start"]) / total)
                parts.append(
                    f"<tr><td>{esc(row['stage'])}</td>"
                    f"<td><span class='lane'><span class='bar' "
                    f"style='left:{left:.2f}%;width:{width:.2f}%'></span></span></td>"
                    f"<td>{row['busy'] * 1000:.1f}</td>"
                    f"<td>{row['spans']}</td></tr>"
                )
            parts.append("</table>")

        if self.hotspots:
            parts.append("<h2>Hotspots</h2><table>")
            parts.append(
                "<tr><th>section</th><th>total (ms)</th><th>calls</th>"
                "<th>mean (ms)</th><th>max (ms)</th></tr>"
            )
            for row in self.hotspots:
                parts.append(
                    f"<tr><td><code>{esc(row['section'])}</code></td>"
                    f"<td>{row['seconds'] * 1000:.1f}</td><td>{row['calls']}</td>"
                    f"<td>{row['mean'] * 1000:.2f}</td>"
                    f"<td>{row['max'] * 1000:.2f}</td></tr>"
                )
            parts.append("</table>")

        if self.attrib:
            views = self.attrib
            totals = views["atpg_totals"]
            parts.append("<h2>Search-effort attribution</h2>")
            parts.append(
                f"<p>ATPG: {totals.get('calls', 0)} PODEM calls, "
                f"{totals.get('effort', 0)} effort units "
                f"({totals.get('decisions', 0)} decisions, "
                f"{totals.get('backtracks', 0)} backtracks, "
                f"{totals.get('implications', 0)} implications).</p>"
            )
            if views["hard_faults"]:
                parts.append("<h3>Hardest faults</h3><table>")
                parts.append(
                    "<tr><th>fault</th><th>site</th><th>kind</th><th>depth</th>"
                    "<th>effort</th><th>backtracks</th><th>status</th>"
                    "<th>abort cause</th></tr>"
                )
                for row in views["hard_faults"]:
                    parts.append(
                        f"<tr><td><code>{esc(row['fault'])}</code></td>"
                        f"<td>{esc(row['site'])}</td><td>{esc(row['gate_kind'])}</td>"
                        f"<td>{row['cone_depth']}</td><td>{row['effort']}</td>"
                        f"<td>{row['backtracks']}</td><td>{esc(row['status'])}</td>"
                        f"<td>{esc(row['abort_cause'] or '—')}</td></tr>"
                    )
                parts.append("</table>")
            if views["sim_buckets"]:
                scalars = views["sim_scalars"]
                parts.append("<h3>Simulation work by (level, gate kind)</h3>")
                parts.append(
                    f"<p>{scalars['good_batches']} good-value batches, "
                    f"{scalars['sweep_candidates']} survivor-sweep candidates, "
                    f"{scalars['cone_walks']} detection-cone walks.</p>"
                )
                parts.append(
                    "<table><tr><th>level:kind</th><th>good words</th>"
                    "<th>sweep words</th><th>total</th></tr>"
                )
                for row in views["sim_buckets"][:10]:
                    parts.append(
                        f"<tr><td><code>{esc(row['bucket'])}</code></td>"
                        f"<td>{row['good_words']}</td><td>{row['sweep_words']}</td>"
                        f"<td>{row['total']}</td></tr>"
                    )
                parts.append("</table>")
            parts.append("<h3>Optimizer convergence</h3><table>")
            parts.append("<tr><th>metric</th><th>value</th></tr>")
            for label, value in views["convergence"]:
                parts.append(f"<tr><td>{esc(label)}</td><td>{esc(value)}</td></tr>")
            for row in views["move_yield"]:
                parts.append(
                    f"<tr><td><code>{esc(row['kind'])}</code> moves accepted</td>"
                    f"<td>{row['accepted']}/{row['candidates']}</td></tr>"
                )
            parts.append("</table>")

        parts.append("<h2>Counters vs baseline</h2>")
        if not self.diff["available"]:
            parts.append("<p><i>No baseline record available.</i></p>")
        elif not self.diff["changed"]:
            parts.append(
                f"<p>All {self.diff['unchanged']} counters match the baseline "
                "exactly.</p>"
            )
        else:
            parts.append("<table><tr><th>counter</th><th>baseline</th>"
                         "<th>current</th></tr>")
            for row in self.diff["changed"]:
                base = "absent" if row["baseline"] is None else row["baseline"]
                cand = "absent" if row["candidate"] is None else row["candidate"]
                parts.append(
                    f"<tr><td><code>{esc(row['counter'])}</code></td>"
                    f"<td>{esc(base)}</td><td>{esc(cand)}</td></tr>"
                )
            parts.append(f"</table><p>{self.diff['unchanged']} counters "
                         "unchanged.</p>")
        parts.append("</body></html>")
        return "\n".join(parts)

    def to_json(self) -> str:
        return json.dumps(
            {
                "title": self.title,
                "record": self.record,
                "baseline": self.baseline,
                "waterfall": self.waterfall,
                "hotspots": self.hotspots,
                "summary": self.summary,
                "counter_diff": self.diff,
            },
            indent=2,
            sort_keys=True,
        )


def build_run_report(
    title: str,
    record: Dict,
    baseline: Optional[Dict] = None,
    trace_events: Sequence[Dict] = (),
    registry: Optional[MetricsRegistry] = None,
    summary: Optional[Dict] = None,
    top_k: int = 10,
) -> RunReport:
    """Assemble a :class:`RunReport` from the run's raw observability data."""
    return RunReport(
        title=title,
        record=record,
        baseline=baseline,
        waterfall=stage_waterfall(trace_events),
        hotspots=hotspots(registry, top_k) if registry is not None else [],
        summary=dict(summary or {}),
    )
