"""Tests for run reports (:mod:`repro.obs.report`) and ``repro report``."""

import json

import pytest

from repro.obs.ledger import make_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    RunReport,
    build_run_report,
    counter_diff,
    hotspots,
    stage_waterfall,
)

ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}


def record(counters=None, samples=(0.5,)):
    return make_record(
        "profile-System1",
        list(samples),
        counters=counters if counters is not None else {"a": 1, "z": 0},
        kind="profile",
        env=ENV,
        git_sha="a" * 40,
        timestamp="2026-08-06T12:00:00Z",
    )


def span(name, ts, dur, depth=0):
    return {"name": name, "ts": ts, "dur": dur, "args": {"depth": depth}}


class TestStageWaterfall:
    def test_rows_relative_to_earliest_span(self):
        events = [
            span("corelevel.hscan", 1_000_000, 500_000),
            span("atpg.run", 2_000_000, 1_000_000),
            span("atpg.run.podem", 2_100_000, 200_000, depth=1),
        ]
        rows = stage_waterfall(events)
        by_stage = {row["stage"]: row for row in rows}
        core = by_stage["core-level"]
        assert core["start"] == 0.0 and core["end"] == pytest.approx(0.5)
        atpg = by_stage["ATPG"]
        assert atpg["start"] == pytest.approx(1.0)
        assert atpg["end"] == pytest.approx(2.0)
        # busy counts only the outermost (min-depth) spans
        assert atpg["busy"] == pytest.approx(1.0)
        assert atpg["spans"] == 2

    def test_prefix_matching_is_exact_or_dotted(self):
        rows = stage_waterfall([span("atpgx", 0, 10)])
        assert rows == []  # "atpgx" must not match the "atpg" stage

    def test_empty_trace(self):
        assert stage_waterfall([]) == []


class TestHotspots:
    def test_sorted_by_total_time_and_capped(self):
        registry = MetricsRegistry()
        registry.histogram("fast.time").observe(0.1)
        registry.histogram("slow.time").observe(1.0)
        registry.histogram("slow.time").observe(2.0)
        registry.histogram("not_a_timer").observe(99.0)
        rows = hotspots(registry, top_k=1)
        assert len(rows) == 1
        assert rows[0]["section"] == "slow"
        assert rows[0]["seconds"] == pytest.approx(3.0)
        assert rows[0]["calls"] == 2


class TestCounterDiff:
    def test_no_baseline(self):
        diff = counter_diff({"a": 1}, None)
        assert diff["available"] is False

    def test_zero_vs_absent_is_a_change(self):
        diff = counter_diff({"a": 1, "z": 0}, {"a": 1})
        assert diff["available"] is True
        assert diff["changed"] == [
            {"counter": "z", "baseline": None, "candidate": 0}
        ]
        assert diff["unchanged"] == 1


class TestRunReport:
    def build(self, baseline=None):
        registry = MetricsRegistry()
        registry.histogram("atpg.run.time").observe(0.25)
        return build_run_report(
            title="System1 pipeline",
            record=record(),
            baseline=baseline,
            trace_events=[span("atpg.run", 0, 250_000)],
            registry=registry,
            summary={"serial TAT": 17_000},
        )

    def test_markdown_contains_every_section(self):
        text = self.build(baseline=record(counters={"a": 2})).to_markdown()
        assert "# Run report — System1 pipeline" in text
        assert "## Plan summary" in text and "17000" in text
        assert "## Stage waterfall" in text and "ATPG" in text and "█" in text
        assert "## Hotspots" in text and "`atpg.run`" in text
        assert "## Counters vs baseline" in text
        assert "| `a` | 2 | 1 |" in text  # the drifted counter
        assert "aaaaaaaaaaaa" in text  # the short git sha

    def test_markdown_without_baseline(self):
        text = self.build().to_markdown()
        assert "counter diff skipped" in text

    def test_markdown_counters_all_match(self):
        text = self.build(baseline=record()).to_markdown()
        assert "counters match the baseline exactly" in text

    def test_html_is_escaped_and_structured(self):
        report = self.build(baseline=record(counters={"a": 2}))
        report.title = "<System1 & pipeline>"
        html = report.to_html()
        assert "&lt;System1 &amp; pipeline&gt;" in html
        assert "class='bar'" in html  # waterfall lanes rendered
        assert "<h2>Hotspots</h2>" in html
        assert "<System1" not in html.replace("<System1 ", "")

    def test_json_round_trip(self):
        payload = json.loads(self.build().to_json())
        assert payload["record"]["bench"] == "profile-System1"
        assert payload["waterfall"][0]["stage"] == "ATPG"
        assert payload["counter_diff"]["available"] is False

    def test_waterfall_scale_handles_zero_duration(self):
        report = RunReport(title="t", record=record(), waterfall=[
            {"stage": "s", "prefix": "s", "start": 0.0, "end": 0.0,
             "busy": 0.0, "spans": 1},
        ])
        assert "s" in report.to_markdown()
        assert "s" in report.to_html()


class TestCliReport:
    def test_report_markdown_to_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import TRACER

        out = tmp_path / "report.md"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "report", "System1", "--quick",
            "-o", str(out), "--ledger", str(ledger),
        ]) == 0
        assert not TRACER.enabled  # tracing restored afterwards
        text = out.read_text()
        assert "# Run report — System1 pipeline" in text
        assert "## Stage waterfall" in text
        assert "## Hotspots" in text
        from repro.obs.ledger import RunLedger

        (appended,) = RunLedger(ledger).records()
        assert appended["bench"] == "profile-System1-quick"
        assert appended["kind"] == "profile"

    def test_report_json_with_baseline_diff(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import RunLedger

        baseline = tmp_path / "baseline.jsonl"
        RunLedger(baseline).append(
            make_record(
                "profile-System1-quick",
                [0.5],
                counters={"phantom.counter": 3},
                kind="profile",
                env=ENV,
                git_sha=None,
                timestamp="2026-08-06T12:00:00Z",
            )
        )
        assert main([
            "report", "System1", "--quick", "-f", "json",
            "--baseline", str(baseline),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"]["counters"] == {"phantom.counter": 3}
        changed = {row["counter"] for row in payload["counter_diff"]["changed"]}
        assert "phantom.counter" in changed  # absent in the fresh run

    def test_missing_baseline_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([
                "report", "System1", "--quick",
                "--baseline", str(tmp_path / "none.jsonl"),
            ])
        assert exc.value.code == 2
