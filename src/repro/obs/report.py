"""Run reports: one pipeline run as markdown, HTML or JSON.

A :class:`RunReport` lays one run's ledger record out once, as a list of
headings, prose and tables:

* the **plan summary**, the record's ``results`` (serial, scheduled and
  optimized TAT, DFT cells);
* the **stage table** of :func:`repro.obs.profiler.stage_rows` over the
  record's section totals -- each pipeline stage's self time plus the
  run's ``unaccounted`` time, rows that sum to the run's total;
* **top-k hotspots**: the timed sections ranked by self time, with
  their inclusive time and calls (the run's root section is left out:
  its inclusive time is the whole run);
* **search-effort attribution** from the record's ``repro-attrib``
  artifact: the hardest faults and the optimizer's convergence;
* a **counter diff** against a baseline ledger record -- every counter
  that changed, appeared, or disappeared, plus how many matched.

:meth:`RunReport.to_markdown` (GitHub-flavoured) and
:meth:`RunReport.to_html` (a dependency-free standalone page, every
cell escaped) are two small serializers of that one list, so both
carry the same sections and numbers.  ``repro report`` writes either,
or the underlying data as JSON, and CI uploads them as artifacts.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.profiler import ROOT_SECTION, stage_rows
from repro.obs.regress import compare_counters


# ----------------------------------------------------------------------
# view extraction
# ----------------------------------------------------------------------
def hotspots(sections: Dict[str, Dict], top_k: int = 10) -> List[Dict]:
    """A record's ``top_k`` timed sections by self time, the root left out."""
    rows = [
        {
            "section": name,
            "self_seconds": totals["self"],
            "seconds": totals["sum"],
            "calls": totals["count"],
        }
        for name, totals in sections.items()
        if name != ROOT_SECTION
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


# ----------------------------------------------------------------------
# the report: one block list, two serializers
# ----------------------------------------------------------------------
class Code(str):
    """A cell shown as code: backticks in markdown, ``<code>`` in HTML."""


class Strong(str):
    """A cell shown in bold."""


#: a block is ``("h", level, text)``, ``("p", text)`` or
#: ``("table", headers, rows)``
Block = Tuple


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"


def _md_cell(value) -> str:
    if isinstance(value, Code):
        return f"`{value}`"
    if isinstance(value, Strong):
        return f"**{value}**"
    return str(value)


def _md_row(cells) -> str:
    return "|" + "|".join(f" {cell} " if cell != "" else " " for cell in cells) + "|"


def _html_cell(value) -> str:
    text = _html.escape(str(value))
    if isinstance(value, Code):
        return f"<code>{text}</code>"
    if isinstance(value, Strong):
        return f"<b>{text}</b>"
    return text


@dataclass
class RunReport:
    """One run's observability views, renderable as markdown or HTML.

    The stages, hotspots and plan summary are read off the record: its
    ``histograms`` (section totals), ``counters`` and ``results``.  The
    root section's self time is the stage table's ``unaccounted`` row,
    and it is not a hotspot.
    """

    title: str
    record: Dict  # the run's ledger record
    baseline: Optional[Dict] = None  # baseline ledger record, if any
    top_k: int = 10  # hotspot rows

    def __post_init__(self) -> None:
        sections = self.record.get("histograms", {})
        self.stages = stage_rows(sections, self.record["counters"])
        self.hotspots = hotspots(sections, self.top_k)
        self.summary = dict(self.record.get("results", {}))  # headline plan numbers
        self.diff = counter_diff(
            self.record.get("counters", {}),
            self.baseline.get("counters") if self.baseline else None,
        )
        self.blocks: List[Block] = (
            self._summary_blocks()
            + self._stage_blocks()
            + self._hotspot_blocks()
            + self._attrib_blocks()
            + self._counter_blocks()
        )

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

    def _summary_blocks(self) -> List[Block]:
        if not self.summary:
            return []
        rows = [[key, value] for key, value in self.summary.items()]
        return [("h", 2, "Plan summary"), ("table", ["metric", "value"], rows)]

    def _stage_blocks(self) -> List[Block]:
        total = sum(row["self_seconds"] for row in self.stages)
        rows = [
            [
                row["stage"],
                _ms(row["self_seconds"]),
                f"{100.0 * row['self_seconds'] / total:.1f}%" if total else "-",
                row["calls"],
            ]
            for row in self.stages
        ]
        rows.append([Strong("total"), _ms(total), "", ""])
        return [
            ("h", 2, "Stage times"),
            ("table", ["stage", "self (ms)", "share", "sections"], rows),
            ("p", "Self times: a section's time minus the sections opened "
                  "inside it. The unaccounted row is the run's time outside "
                  "every section; the rows sum to the total."),
        ]

    def _hotspot_blocks(self) -> List[Block]:
        if not self.hotspots:
            return []
        rows = [
            [Code(row["section"]), _ms(row["self_seconds"]), _ms(row["seconds"]),
             row["calls"]]
            for row in self.hotspots
        ]
        return [
            ("h", 2, "Hotspots"),
            ("p", "Top sections by self time; the run's root section is "
                  "never one."),
            ("table", ["section", "self (ms)", "inclusive (ms)", "calls"], rows),
        ]

    def _attrib_blocks(self) -> List[Block]:
        artifact = self.record.get("attrib")
        if not artifact:
            return []
        planes = artifact["planes"]
        totals = planes["atpg"]["totals"]
        blocks: List[Block] = [
            ("h", 2, "Search-effort attribution"),
            ("p", f"ATPG: {totals['calls']} PODEM calls, {totals['effort']} "
                  f"effort units ({totals['decisions']} decisions, "
                  f"{totals['backtracks']} backtracks, "
                  f"{totals['implications']} implications)."),
        ]
        hard = planes["atpg"]["hard_faults"]  # ranked and cut to top-k
        if hard:
            blocks.append(("h", 3, "Hardest faults"))
            blocks.append(("table", [
                "fault", "site", "kind", "depth", "effort", "backtracks",
                "status", "abort cause",
            ], [
                [Code(row["fault"]), row["site"], row["gate_kind"],
                 row["cone_depth"], row["effort"], row["backtracks"],
                 row["status"], row["abort_cause"] or "—"]
                for row in hard
            ]))
        optimizer = planes["optimizer"]["summary"]
        rows = [
            ["candidate moves", optimizer["candidates"]],
            ["accepted", optimizer["accepted"]],
            ["rejected", optimizer["rejected"]],
            ["design-point revisits", optimizer["revisits"]],
            ["trailing plateau", optimizer["plateau"]],
            ["wasted-move ratio", optimizer["wasted_ratio"]],
        ]
        rows.extend(
            [f"{kind} moves accepted", f"{row['accepted']}/{row['candidates']}"]
            for kind, row in sorted(optimizer["yield"].items())
        )
        blocks.append(("h", 3, "Optimizer convergence"))
        blocks.append(("table", ["metric", "value"], rows))
        return blocks

    def _counter_blocks(self) -> List[Block]:
        diff = self.diff
        blocks: List[Block] = [("h", 2, "Counters vs baseline")]
        if not diff["available"]:
            blocks.append(("p", "No baseline record available; counter diff "
                                "skipped."))
        elif not diff["changed"]:
            blocks.append(("p", f"All {diff['unchanged']} counters match the "
                                "baseline exactly (deterministic pipeline, "
                                "unchanged work)."))
        else:
            rows = [
                [Code(row["counter"]),
                 "absent" if row["baseline"] is None else row["baseline"],
                 "absent" if row["candidate"] is None else row["candidate"]]
                for row in diff["changed"]
            ]
            blocks.append(("table", ["counter", "baseline", "current"], rows))
            blocks.append(("p", f"{diff['unchanged']} counters unchanged."))
        return blocks

    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        lines = [f"# Run report — {self.title}", ""]
        lines.extend(f"- **{key}**: {value}" for key, value in self._header_facts())
        lines.append("")
        for block in self.blocks:
            if block[0] == "h":
                lines.append("#" * block[1] + " " + block[2])
            elif block[0] == "p":
                lines.append(block[1])
            else:
                _kind, headers, rows = block
                lines.append(_md_row(headers))
                lines.append(_md_row(["---"] + ["---:"] * (len(headers) - 1)))
                lines.extend(_md_row([_md_cell(cell) for cell in row]) for row in rows)
            lines.append("")
        return "\n".join(lines)

    def to_html(self) -> str:
        title = _html.escape(self.title)
        parts = [
            "<!doctype html>",
            "<html><head><meta charset='utf-8'>",
            f"<title>Run report — {title}</title>",
            "<style>",
            "body{font:14px/1.5 system-ui,sans-serif;margin:2rem;max-width:60rem}",
            "table{border-collapse:collapse;margin:0.5rem 0}",
            "td,th{border:1px solid #ccc;padding:0.25rem 0.6rem;text-align:right}",
            "td:first-child,th:first-child{text-align:left}",
            "code{background:#f5f5f5;padding:0 0.2rem}",
            "</style></head><body>",
            f"<h1>Run report — {title}</h1>",
            "<ul>",
        ]
        parts.extend(
            f"<li><b>{_html.escape(key)}</b>: {_html.escape(value)}</li>"
            for key, value in self._header_facts()
        )
        parts.append("</ul>")
        for block in self.blocks:
            if block[0] == "h":
                parts.append(f"<h{block[1]}>{_html.escape(block[2])}</h{block[1]}>")
            elif block[0] == "p":
                parts.append(f"<p>{_html.escape(block[1])}</p>")
            else:
                _kind, headers, rows = block
                parts.append("<table>")
                parts.append("<tr>" + "".join(
                    f"<th>{_html.escape(header)}</th>" for header in headers
                ) + "</tr>")
                parts.extend("<tr>" + "".join(
                    f"<td>{_html_cell(cell)}</td>" for cell in row
                ) + "</tr>" for row in rows)
                parts.append("</table>")
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
