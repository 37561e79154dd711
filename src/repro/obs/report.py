"""Run reports: stage table, hotspots, and counter diff as markdown/HTML.

A :class:`RunReport` combines the three views the observatory produces
for one measured run:

* the **stage table** of :func:`repro.obs.profiler.stage_rows` -- each
  pipeline stage's self time plus the run's ``unaccounted`` time, rows
  that sum to the run's total;
* **top-k hotspots**: the timed sections ranked by self time, with
  their inclusive time and calls (the run's root section is left out:
  its inclusive time is the whole run);
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
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import stage_rows
from repro.obs.regress import compare_counters

# ----------------------------------------------------------------------
# view extraction
# ----------------------------------------------------------------------
def hotspots(
    registry: MetricsRegistry, top_k: int = 10, root: str = "profile.total"
) -> List[Dict]:
    """The ``top_k`` timed sections by self time, ``root`` left out."""
    rows = [
        {
            "section": name,
            "self_seconds": totals["self"],
            "seconds": totals["sum"],
            "calls": totals["count"],
        }
        for name, totals in registry.sections().items()
        if name != root
    ]
    rows.sort(key=lambda row: (-row["self_seconds"], row["section"]))
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
    stages: List[Dict] = field(default_factory=list)
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

    def _stage_total(self) -> float:
        return sum(row["self_seconds"] for row in self.stages)

    def _share(self, seconds: float) -> str:
        total = self._stage_total()
        return f"{100.0 * seconds / total:.1f}%" if total else "-"

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

        if self.stages:
            lines.append("## Stage times")
            lines.append("")
            lines.append("| stage | self (ms) | share | sections |")
            lines.append("| --- | ---: | ---: | ---: |")
            for row in self.stages:
                lines.append(
                    f"| {row['stage']} | {row['self_seconds'] * 1000:.1f} "
                    f"| {self._share(row['self_seconds'])} | {row['calls']} |"
                )
            lines.append(f"| **total** | {self._stage_total() * 1000:.1f} | | |")
            lines.append("")
            lines.append(
                "Self times: a section's time minus the sections opened "
                "inside it. `unaccounted` is the run's time outside every "
                "section; the rows sum to the total."
            )
            lines.append("")

        if self.hotspots:
            lines.append("## Hotspots (top sections by self time)")
            lines.append("")
            lines.append("| section | self (ms) | inclusive (ms) | calls |")
            lines.append("| --- | ---: | ---: | ---: |")
            for row in self.hotspots:
                lines.append(
                    f"| `{row['section']}` | {row['self_seconds'] * 1000:.1f} "
                    f"| {row['seconds'] * 1000:.1f} | {row['calls']} |"
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

        if self.stages:
            parts.append("<h2>Stage times</h2><table>")
            parts.append(
                "<tr><th>stage</th><th>self (ms)</th><th>share</th>"
                "<th>sections</th></tr>"
            )
            for row in self.stages:
                parts.append(
                    f"<tr><td>{esc(row['stage'])}</td>"
                    f"<td>{row['self_seconds'] * 1000:.1f}</td>"
                    f"<td>{self._share(row['self_seconds'])}</td>"
                    f"<td>{row['calls']}</td></tr>"
                )
            parts.append(
                f"<tr><th>total</th><th>{self._stage_total() * 1000:.1f}</th>"
                "<th></th><th></th></tr>"
            )
            parts.append("</table>")

        if self.hotspots:
            parts.append("<h2>Hotspots</h2><table>")
            parts.append(
                "<tr><th>section</th><th>self (ms)</th><th>inclusive (ms)</th>"
                "<th>calls</th></tr>"
            )
            for row in self.hotspots:
                parts.append(
                    f"<tr><td><code>{esc(row['section'])}</code></td>"
                    f"<td>{row['self_seconds'] * 1000:.1f}</td>"
                    f"<td>{row['seconds'] * 1000:.1f}</td>"
                    f"<td>{row['calls']}</td></tr>"
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
                "stages": self.stages,
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
    registry: Optional[MetricsRegistry] = None,
    summary: Optional[Dict] = None,
    top_k: int = 10,
    root: str = "profile.total",
) -> RunReport:
    """Assemble a :class:`RunReport` from the run's registry.

    ``root`` names the section that spans the whole run: its self time
    is the stage table's ``unaccounted`` row, and it is not a hotspot.
    """
    return RunReport(
        title=title,
        record=record,
        baseline=baseline,
        stages=stage_rows(registry, root) if registry is not None else [],
        hotspots=hotspots(registry, top_k, root) if registry is not None else [],
        summary=dict(summary or {}),
    )
