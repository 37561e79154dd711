"""Tests for run reports (:mod:`repro.obs.report`) and ``repro report``."""

import copy
import html
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.ledger import make_record
from repro.obs.report import RunReport, counter_diff, hotspots

ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}


def record(counters=None, samples=(0.5,), sections=None, results=None):
    return make_record(
        "profile-System1",
        list(samples),
        counters=counters if counters is not None else {"a": 1, "z": 0},
        kind="profile",
        env=ENV,
        git_sha="a" * 40,
        timestamp="2026-08-06T12:00:00Z",
        histograms=sections,
        results=results,
    )


def sections_of(totals):
    """A record's section totals from ``{name: (calls, sum, self)}``."""
    return {
        name: {"count": calls, "sum": seconds, "self": self_seconds}
        for name, (calls, seconds, self_seconds) in totals.items()
    }


class TestStageTable:
    def test_rows_are_self_times_plus_unaccounted(self):
        sections = sections_of({
            "profile.total": (1, 1.0, 0.25),
            "atpg.run": (1, 0.5, 0.375),
            "faultsim.run": (2, 0.125, 0.125),
            "corelevel.hscan": (3, 0.25, 0.25),
        })
        report = RunReport("t", record(sections=sections))
        by_stage = {row["stage"]: row for row in report.stages}
        assert by_stage["ATPG"]["self_seconds"] == 0.375
        assert by_stage["fault-sim"]["calls"] == 2
        assert report.stages[-1]["stage"] == "unaccounted"
        assert report.stages[-1]["self_seconds"] == 0.25
        assert sum(row["self_seconds"] for row in report.stages) == 1.0

    def test_prefix_matching_is_exact_or_dotted(self):
        sections = sections_of({"atpgx.run": (1, 0.5, 0.5)})
        report = RunReport("t", record(sections=sections))
        by_stage = {row["stage"]: row for row in report.stages}
        assert by_stage["ATPG"]["self_seconds"] == 0.0
        assert by_stage["atpgx"]["self_seconds"] == 0.5  # "atpgx" is not "atpg"


class TestHotspots:
    def test_sorted_by_self_time_and_capped(self):
        sections = sections_of({
            "fast.run": (1, 0.1, 0.1),
            "slow.run": (2, 3.0, 0.5),
            "busy.run": (1, 1.0, 1.0),
        })
        rows = hotspots(sections, top_k=2)
        assert [row["section"] for row in rows] == ["busy.run", "slow.run"]
        assert rows[1]["seconds"] == pytest.approx(3.0)
        assert rows[1]["calls"] == 2

    def test_root_section_is_never_a_hotspot(self):
        sections = sections_of({
            "profile.total": (1, 9.0, 5.0), "atpg.run": (1, 4.0, 4.0),
        })
        rows = hotspots(sections)
        assert [row["section"] for row in rows] == ["atpg.run"]


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
        sections = sections_of({
            "profile.total": (1, 0.5, 0.25),
            "atpg.run": (1, 0.25, 0.25),
        })
        return RunReport(
            title="System1 pipeline",
            record=record(sections=sections, results={"serial TAT": 17_000}),
            baseline=baseline,
        )

    def test_markdown_contains_every_section(self):
        text = self.build(baseline=record(counters={"a": 2})).to_markdown()
        assert "# Run report — System1 pipeline" in text
        assert "## Plan summary" in text and "17000" in text
        assert "## Stage times" in text
        assert "| ATPG | 250.0 | 50.0% | 1 |" in text
        assert "| unaccounted | 250.0 | 50.0% | 1 |" in text
        assert "| **total** | 500.0 | | |" in text
        assert "## Hotspots" in text and "`atpg.run`" in text
        assert "`profile.total`" not in text
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
        assert "<h2>Stage times</h2>" in html
        assert "<td>unaccounted</td><td>250.0</td>" in html
        assert "<h2>Hotspots</h2>" in html
        assert "<System1" not in html.replace("<System1 ", "")

    def test_json_round_trip(self):
        payload = json.loads(self.build().to_json())
        assert payload["record"]["bench"] == "profile-System1"
        assert payload["stages"][-1]["stage"] == "unaccounted"
        assert [row["section"] for row in payload["hotspots"]] == ["atpg.run"]
        assert payload["counter_diff"]["available"] is False

    def test_zero_time_run_renders(self):
        sections = sections_of({"profile.total": (1, 0.0, 0.0)})
        report = RunReport(title="t", record=record(sections=sections))
        assert "| unaccounted | 0.0 | - | 1 |" in report.to_markdown()
        assert "unaccounted" in report.to_html()


class TestCliReport:
    def test_report_markdown_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "report", "System1", "--quick",
            "-o", str(out), "--ledger", str(ledger),
        ]) == 0
        text = out.read_text()
        assert "# Run report — System1 pipeline" in text
        assert "## Stage times" in text and "| unaccounted |" in text
        assert "## Hotspots" in text
        assert "`profile.total`" not in text
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

    def test_markdown_and_html_carry_the_same_sections(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.flow import profile
        from repro.obs.ledger import RunLedger

        # one pipeline run, so one record and timestamp, behind both renderings
        run = profile.run_pipeline("System1", max_faults=profile.QUICK_MAX_FAULTS)
        monkeypatch.setattr(profile, "run_pipeline", lambda *_a, **_k: run)
        drifted = copy.deepcopy(run)
        drifted["counters"]["atpg.podem.calls"] += 1  # one counter-diff row
        baseline = tmp_path / "baseline.jsonl"
        RunLedger(baseline).append(drifted)
        md, page = tmp_path / "report.md", tmp_path / "report.html"
        common = ["report", "System1", "--quick", "--baseline", str(baseline)]
        assert main(common + ["-o", str(md)]) == 0
        assert main(common + ["-f", "html", "-o", str(page)]) == 0
        text = md.read_text(encoding="utf-8")
        body = page.read_text(encoding="utf-8").split("<body>", 1)[1]

        md_headings = [(len(marks), title) for marks, title
                       in re.findall(r"^(#+) (.+)$", text, re.M)]
        html_headings = [(int(level), html.unescape(title)) for level, title
                         in re.findall(r"<h(\d)>(.*?)</h\1>", body)]
        assert md_headings == html_headings
        assert [title for level, title in md_headings if level == 2] == [
            "Plan summary", "Stage times", "Hotspots",
            "Search-effort attribution", "Counters vs baseline",
        ]
        number = re.compile(r"\d+(?:\.\d+)?")
        html_text = html.unescape(re.sub(r"<[^>]+>", " ", body))
        assert number.findall(text) == number.findall(html_text)
        assert str(run["results"]["optimized TAT"]) in number.findall(text)

    def test_output_file_is_utf8_under_an_ascii_locale(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(root / "src"))
        out = tmp_path / "report.md"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "report", "System1", "--quick",
             "-o", str(out)],
            env=env, capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text(encoding="utf-8").startswith(
            "# Run report — System1 pipeline"
        )
