"""Report rows mirroring the paper's tables, plus text rendering.

``repro profile``'s run report (:func:`render_run_report`) renders one
pipeline record: the paper's Tables 2 and 3 and the schedule rows,
rebuilt from the record by :func:`record_rows`, beside the run's
timing and search-effort views.  Every table is plain ASCII from
:func:`repro.util.render_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.profiler import ROOT_SECTION, stage_rows
from repro.obs.regress import COUNTER_IGNORE, compare_counters
from repro.util.tables import render_table


@dataclass
class AreaRow:
    """One row of Table 2 (area overheads, in cells and percent)."""

    system: str
    original_area: int
    fscan_cells: int
    hscan_cells: int
    bscan_cells: int
    socet_variant: str  # "Min. Area" | "Min. TApp."
    socet_chip_cells: int

    @property
    def fscan_percent(self) -> float:
        return 100.0 * self.fscan_cells / self.original_area

    @property
    def hscan_percent(self) -> float:
        return 100.0 * self.hscan_cells / self.original_area

    @property
    def bscan_percent(self) -> float:
        return 100.0 * self.bscan_cells / self.original_area

    @property
    def socet_chip_percent(self) -> float:
        return 100.0 * self.socet_chip_cells / self.original_area

    @property
    def fscan_bscan_total_percent(self) -> float:
        return self.fscan_percent + self.bscan_percent

    @property
    def socet_total_percent(self) -> float:
        """Core-level HSCAN + chip-level SOCET DFT."""
        return self.hscan_percent + self.socet_chip_percent


def render_area_table(rows: List[AreaRow]) -> str:
    """Text table shaped like the paper's Table 2."""
    headers = [
        "Circuit",
        "Orig.(cells)",
        "FSCAN%",
        "HSCAN%",
        "BSCAN%",
        "Chip type",
        "SOCET%",
        "FSCAN-BSCAN tot%",
        "SOCET tot%",
    ]
    body = [
        [
            row.system,
            row.original_area,
            f"{row.fscan_percent:.1f}",
            f"{row.hscan_percent:.1f}",
            f"{row.bscan_percent:.1f}",
            row.socet_variant,
            f"{row.socet_chip_percent:.1f}",
            f"{row.fscan_bscan_total_percent:.1f}",
            f"{row.socet_total_percent:.1f}",
        ]
        for row in rows
    ]
    return render_table(headers, body, title="Table 2: area overheads")


@dataclass
class ScheduleRow:
    """Serial vs concurrent-session TAT for one plan variant."""

    system: str
    variant: str  # "Min. Area" | "Min. TApp." | "-"
    algorithm: str
    serial_tat: int
    makespan: int
    sessions: int

    @property
    def speedup(self) -> float:
        return self.serial_tat / self.makespan if self.makespan else 1.0


def render_schedule_table(rows: List[ScheduleRow]) -> str:
    """Serial vs scheduled TAT side by side (beyond the paper's tables)."""
    headers = [
        "Circuit",
        "Chip type",
        "Scheduler",
        "Serial TApp",
        "Scheduled TApp",
        "Sessions",
        "Speedup",
    ]
    body = [
        [
            row.system,
            row.variant,
            row.algorithm,
            row.serial_tat,
            row.makespan,
            row.sessions,
            f"{row.speedup:.2f}x",
        ]
        for row in rows
    ]
    return render_table(headers, body, title="Concurrent test-session scheduling")


def render_session_table(schedule) -> str:
    """Per-session utilization breakdown of one TestSchedule."""
    headers = ["Session", "Start", "End", "Length", "Cores", "Utilization"]
    body = [
        [
            session.index,
            session.start,
            session.end,
            session.length,
            ", ".join(sorted(e.core for e in session.entries)),
            f"{session.utilization:.2f}",
        ]
        for session in schedule.sessions()
    ]
    return render_table(
        headers,
        body,
        title=f"{schedule.soc_name}: per-session utilization ({schedule.algorithm})",
    )


@dataclass
class TestabilityRow:
    """One row of Table 3 (coverage / efficiency / test time)."""

    system: str
    configuration: str  # "Orig." | "HSCAN" | "FSCAN-BSCAN" | "SOCET Min. Area" | ...
    fault_coverage: float
    test_efficiency: float
    tat: Optional[int] = None


_ROW_TYPES = {"area": AreaRow, "schedules": ScheduleRow, "testability": TestabilityRow}


def record_rows(record: Dict, table: str) -> List:
    """A record's ``area`` (Table 2), ``schedules`` or ``testability``
    (Table 3) rows, as the row objects the table renderers take."""
    return [_ROW_TYPES[table](**row) for row in record["results"][table]]


def _format_counters(counters: Dict[str, object], limit: int = 4) -> str:
    """Compact ``name=value`` list, largest values first."""
    ordered = sorted(counters.items(), key=lambda kv: (-float(kv[1]), kv[0]))
    shown = [f"{name}={value:,}" for name, value in ordered[:limit]]
    if len(ordered) > limit:
        shown.append(f"(+{len(ordered) - limit} more)")
    return ", ".join(shown) if shown else "-"


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.1f}"


def render_stage_table(stages: List[Dict]) -> str:
    """The per-stage breakdown of one profiled pipeline run.

    ``stages`` rows come from :func:`repro.obs.stage_rows`: display
    name, self seconds, timed-section calls, and the stage's counters;
    the last row is the run's ``unaccounted`` time, and a ``total`` row
    that the rows sum to follows it.
    """
    total = sum(row["self_seconds"] for row in stages)
    body = []
    for row in stages:
        body.append(
            [
                row["stage"],
                _ms(row["self_seconds"]),
                f"{100.0 * row['self_seconds'] / total:.1f}" if total else "-",
                row["calls"],
                _format_counters(row["counters"]),
            ]
        )
    body.append(["total", _ms(total), "100.0" if total else "-",
                 sum(row["calls"] for row in stages), ""])
    return render_table(
        ["Stage", "Self(ms)", "Share(%)", "Sections", "Key counters"], body,
        title="Stage times (self times; unaccounted is the time outside every "
              "section; the rows sum to the total)",
    )


def hotspots(sections: Dict[str, Dict]) -> List[Dict]:
    """A record's ten timed sections of most self time, the root left out."""
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
    return rows[:10]


def headline(results: Dict) -> Dict:
    """A run's headline numbers: the scalar entries of its ``results``
    (the design points and table rows beside them are not headlines)."""
    return {key: value for key, value in results.items() if not isinstance(value, (dict, list))}


def _short_sha(record: Dict) -> str:
    return (record.get("git_sha") or "unversioned")[:12]


def render_run_report(record: Dict, baseline: Optional[Dict] = None) -> str:
    """``repro profile``'s text: every view of one pipeline run's record.

    ``record`` is a :func:`repro.flow.profile.run_pipeline` record and
    ``baseline`` the newest record of its series in a baseline ledger
    (or ``None``).  The sections: the run facts, the plan summary,
    SOCET against FSCAN-BSCAN (Table 2, the schedule rows, Table 3 with
    its grading budget, and the baseline's TAT over the least-TAT
    design's), the stage table, the top-10 hotspots by self time (the
    root section is never one: its inclusive time is the whole run),
    the search-effort attribution of the record's ``repro-attrib``
    artifact, and the exact counter diff against ``baseline``.
    """
    samples = record["samples"]
    env = record["env"]
    facts = [
        ["series", record["bench"]],
        ["timestamp", record["timestamp"]],
        ["git sha", _short_sha(record)],
        ["wall time", f"{sum(samples) / len(samples):.3f}s over {len(samples)} sample(s)"],
        ["environment", f"python {env['python']}, {env['platform']}, {env['cpus']} CPUs"],
    ]
    if baseline is not None:
        facts.append(["baseline", f"{baseline['timestamp']} ({_short_sha(baseline)})"])
    sections = record["histograms"]
    atpg = record["attrib"]["planes"]["atpg"]
    totals = atpg["totals"]
    optimizer = record["attrib"]["planes"]["optimizer"]["summary"]
    convergence = [
        ["candidate moves", optimizer["candidates"]],
        ["accepted", optimizer["accepted"]],
        ["rejected", optimizer["rejected"]],
        ["design-point revisits", optimizer["revisits"]],
        ["trailing plateau", optimizer["plateau"]],
        ["wasted-move ratio", optimizer["wasted_ratio"]],
    ]
    convergence.extend(
        [f"{kind} moves accepted", f"{row['accepted']}/{row['candidates']}"]
        for kind, row in sorted(optimizer["yield"].items())
    )
    testability = record_rows(record, "testability")
    tat = {row.configuration: row.tat for row in testability}
    blocks = [
        render_table(["fact", "value"], facts,
                     title=f"{record['attrib']['system']} pipeline run"),
        render_table(["metric", "value"], list(headline(record["results"]).items()),
                     title="Plan summary"),
        render_area_table(record_rows(record, "area")),
        render_schedule_table(record_rows(record, "schedules")),
        render_testability_table(testability) + "\n"
        + render_grading_budget(record["results"]["grading"]),
        f"FSCAN-BSCAN: {tat['FSCAN-BSCAN']} cycles; "
        f"SOCET: {tat['SOCET Min. Area']} (min area) / "
        f"{tat['SOCET Min. TApp.']} (min TApp) -- "
        f"{tat['FSCAN-BSCAN'] / max(1, tat['SOCET Min. TApp.']):.1f}x faster",
        render_stage_table(stage_rows(sections, record["counters"])),
        render_table(
            ["Section", "Self(ms)", "Inclusive(ms)", "Calls"],
            [[row["section"], _ms(row["self_seconds"]), _ms(row["seconds"]), row["calls"]]
             for row in hotspots(sections)],
            title="Hotspots (top sections by self time; the root section is never one)",
        ),
        render_table(
            ["PODEM calls", "effort", "decisions", "backtracks", "implications"],
            [[totals["calls"], totals["effort"], totals["decisions"], totals["backtracks"],
              totals["implications"]]],
            title="Search-effort attribution: ATPG totals "
                  "(effort = decisions + 2 x backtracks + implications)",
        ),
        render_table(
            ["fault", "site", "kind", "depth", "effort", "backtracks", "status", "abort cause"],
            [[row["fault"], row["site"], row["gate_kind"], row["cone_depth"], row["effort"],
              row["backtracks"], row["status"], row["abort_cause"] or "-"]
             for row in atpg["hard_faults"]],
            title="Hardest faults",
        ),
        render_table(["metric", "value"], convergence, title="Optimizer convergence"),
        _render_counter_diff(record["counters"], baseline),
    ]
    return "\n\n".join(blocks)


def _render_counter_diff(counters: Dict, baseline: Optional[Dict]) -> str:
    """The counter gate's comparison (:func:`compare_counters` with
    ``COUNTER_IGNORE``, as ``repro regress`` runs it) as a table."""
    title = "Counters vs baseline"
    if baseline is None:
        return f"{title}\nNo baseline record; counter diff skipped."
    base = baseline["counters"]
    drifts = compare_counters(counters, base, ignore=COUNTER_IGNORE)
    unchanged = sum(
        1 for name, value in counters.items()
        if name in base and base[name] == value and not name.startswith(COUNTER_IGNORE)
    )
    if not drifts:
        return (f"{title}\nAll {unchanged} counters match the baseline exactly "
                "(deterministic pipeline, unchanged work).")
    rows = [
        [d.counter,
         "absent" if d.baseline is None else d.baseline,
         "absent" if d.candidate is None else d.candidate]
        for d in drifts
    ]
    table = render_table(["counter", "baseline", "current"], rows, title=title)
    return f"{table}\n{unchanged} counters unchanged."


def render_testability_table(rows: List[TestabilityRow]) -> str:
    headers = ["Circuit", "Configuration", "FC(%)", "TEff(%)", "TApp(cycles)"]
    body = [
        [
            row.system,
            row.configuration,
            f"{row.fault_coverage:.1f}",
            f"{row.test_efficiency:.1f}",
            "-" if row.tat is None else row.tat,
        ]
        for row in rows
    ]
    return render_table(headers, body, title="Table 3: testability results")


def render_grading_budget(budget: Dict) -> str:
    """The functional grading budget behind Table 3's Orig. and HSCAN rows."""
    return (
        f"Orig. and HSCAN: {budget['sequences']} random sequences x {budget['cycles']} "
        f"cycles, graded over a {budget['faults']}-fault sample (seed {budget['seed']})"
    )
