"""Report rows mirroring the paper's tables, plus text rendering.

Beyond the paper's tables this module renders the observability
artifacts: the per-stage pipeline breakdown behind ``repro profile``
and the metrics section printed by the global ``--metrics`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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


def _format_counters(counters: Dict[str, object], limit: int = 4) -> str:
    """Compact ``name=value`` list, largest values first."""
    ordered = sorted(counters.items(), key=lambda kv: (-float(kv[1]), kv[0]))
    shown = [f"{name}={value:,}" for name, value in ordered[:limit]]
    if len(ordered) > limit:
        shown.append(f"(+{len(ordered) - limit} more)")
    return ", ".join(shown) if shown else "-"


def render_stage_table(stages: List[Dict], title: str = "pipeline profile") -> str:
    """The per-stage breakdown of one profiled pipeline run.

    ``stages`` rows come from :func:`repro.obs.stage_rows`: display
    name, self seconds, timed-section calls, and the stage's counters;
    the last row is the run's ``unaccounted`` time.
    """
    total = sum(row["self_seconds"] for row in stages)
    body = []
    for row in stages:
        body.append(
            [
                row["stage"],
                f"{row['self_seconds'] * 1000.0:.1f}",
                f"{100.0 * row['self_seconds'] / total:.1f}" if total else "-",
                row["calls"],
                _format_counters(row["counters"]),
            ]
        )
    return render_table(
        ["Stage", "Self(ms)", "Share(%)", "Sections", "Key counters"], body, title=title
    )


def render_metrics_table(snapshot: Dict) -> str:
    """The ``--metrics`` section: every counter and timed section.

    ``snapshot`` is :meth:`repro.obs.MetricsRegistry.snapshot` output.
    """
    rows = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append([name, "counter", f"{value:,}"])
    for name, totals in snapshot.get("sections", {}).items():
        rendered = (
            f"n={totals['count']} sum={totals['sum']:.4g}s "
            f"self={totals['self']:.4g}s"
        )
        rows.append([name, "section", rendered])
    if not rows:
        rows.append(["(no instruments recorded)", "-", "-"])
    return render_table(["Instrument", "Kind", "Value"], rows, title="Metrics")


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
