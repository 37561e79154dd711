"""Tests for ``repro profile``'s run report
(:func:`repro.flow.report.render_run_report`) and its view helpers."""

import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flow.report import headline, hotspots, record_rows, render_run_report
from repro.obs.ledger import RunLedger, make_record
from repro.obs.profiler import stage_rows
from repro.obs.regress import COUNTER_IGNORE, compare_records

ROOT = Path(__file__).resolve().parent.parent
ENV = {"python": "3.12.0", "platform": "linux", "cpus": 8}
#: an ASCII locale: Python's stdout then encodes ASCII and raises on
#: anything else
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
HEADINGS = (
    "System1 pipeline run", "Plan summary", "Table 2", "Concurrent test-session scheduling",
    "Table 3", "FSCAN-BSCAN:", "Stage times", "Hotspots", "Search-effort attribution",
    "Hardest faults", "Optimizer convergence", "Counters vs baseline",
)


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


def committed_record():
    """The committed baseline's newest quick System1 pipeline record."""
    ledger = RunLedger(ROOT / "benchmarks" / "baseline" / "ledger.jsonl")
    return copy.deepcopy(ledger.latest("profile-System1-quick"))


def blocks_of(text):
    """The report's sections: title line -> the lines below it."""
    blocks = {}
    for block in text.split("\n\n"):
        title, *lines = block.splitlines()
        blocks[title] = lines
    return blocks


def block(blocks, prefix):
    (lines,) = [lines for title, lines in blocks.items() if title.startswith(prefix)]
    return lines


class TestStageTable:
    def test_rows_are_self_times_plus_unaccounted(self):
        sections = sections_of({
            "profile.total": (1, 1.0, 0.25),
            "atpg.run": (1, 0.5, 0.375),
            "faultsim.run": (2, 0.125, 0.125),
            "corelevel.hscan": (3, 0.25, 0.25),
        })
        stages = stage_rows(sections, {})
        by_stage = {row["stage"]: row for row in stages}
        assert by_stage["ATPG"]["self_seconds"] == 0.375
        assert by_stage["fault-sim"]["calls"] == 2
        assert stages[-1]["stage"] == "unaccounted"
        assert stages[-1]["self_seconds"] == 0.25
        assert sum(row["self_seconds"] for row in stages) == 1.0

    def test_prefix_matching_is_exact_or_dotted(self):
        sections = sections_of({"atpgx.run": (1, 0.5, 0.5)})
        by_stage = {row["stage"]: row for row in stage_rows(sections, {})}
        assert by_stage["ATPG"]["self_seconds"] == 0.0
        assert by_stage["atpgx"]["self_seconds"] == 0.5  # "atpgx" is not "atpg"


class TestHotspots:
    def test_sorted_by_self_time_and_capped(self):
        sections = sections_of({
            "fast.run": (1, 0.1, 0.1),
            "slow.run": (2, 3.0, 0.5),
            "busy.run": (1, 1.0, 1.0),
            **{f"tiny{i:02d}.run": (1, 0.01, 0.01 - i / 1e4) for i in range(12)},
        })
        rows = hotspots(sections)
        assert [row["section"] for row in rows] == [
            "busy.run", "slow.run", "fast.run", *(f"tiny{i:02d}.run" for i in range(7))
        ]
        assert rows[1]["seconds"] == pytest.approx(3.0)
        assert rows[1]["calls"] == 2

    def test_root_section_is_never_a_hotspot(self):
        sections = sections_of({
            "profile.total": (1, 9.0, 5.0), "atpg.run": (1, 4.0, 4.0),
        })
        rows = hotspots(sections)
        assert [row["section"] for row in rows] == ["atpg.run"]


class TestRunReport:
    def build(self, baseline=None, sections=None):
        """A small run: the committed record's artifact and paper tables,
        with two timed sections, one headline number and two counters of
        its own."""
        run = committed_record()
        tables = {key: run["results"][key]
                  for key in ("area", "schedules", "testability", "grading")}
        run.update(record(sections=sections or sections_of({
            "profile.total": (1, 0.5, 0.25),
            "atpg.run": (1, 0.25, 0.25),
        }), results={"serial TAT": 17_000, **tables}))
        return render_run_report(run, baseline)

    def test_text_contains_every_section(self):
        text = self.build(baseline=record(counters={"a": 2}))
        blocks = blocks_of(text)
        for heading in HEADINGS:
            assert [title for title in blocks if title.startswith(heading)], heading
        assert block(blocks, "Plan summary")[2].split() == ["serial", "TAT", "17000"]
        stages = block(blocks, "Stage times")
        assert next(line for line in stages if line.startswith("ATPG")).split()[:4] == [
            "ATPG", "250.0", "50.0", "1"]
        assert stages[-2].split() == ["unaccounted", "250.0", "50.0", "1", "-"]
        assert stages[-1].split() == ["total", "500.0", "100.0", "2"]
        assert [line.split()[0] for line in block(blocks, "Hotspots")[2:]] == ["atpg.run"]
        assert "profile.total" not in "\n".join(block(blocks, "Hotspots"))
        assert block(blocks, "Counters vs baseline")[2].split() == ["a", "2", "1"]
        assert "aaaaaaaaaaaa" in text  # the short git sha

    def test_without_baseline(self):
        assert "No baseline record; counter diff skipped." in self.build()

    def test_counters_all_match(self):
        text = self.build(baseline=record())
        assert "All 2 counters match the baseline exactly" in text

    def test_exec_counters_are_ignored_as_the_gate_ignores_them(self):
        """Plan-cache warmth (``exec.*``) is no drift, as in ``repro regress``."""
        run = committed_record()
        run.update(record(counters={"a": 1, "z": 0, "exec.cache.hits": 5}))
        baseline = record(counters={"a": 1, "z": 0, "exec.cache.hits": 0})
        assert compare_records(run, baseline).drifts == []
        text = render_run_report(run, baseline)
        assert "All 2 counters match the baseline exactly" in text

    def test_zero_vs_absent_is_a_change(self):
        text = self.build(baseline=record(counters={"a": 1}))
        rows = block(blocks_of(text), "Counters vs baseline")
        assert rows[2].split() == ["z", "absent", "0"]
        assert rows[-1] == "1 counters unchanged."

    def test_zero_time_run_renders(self):
        text = self.build(sections=sections_of({"profile.total": (1, 0.0, 0.0)}))
        stages = block(blocks_of(text), "Stage times")
        assert stages[-2].split() == ["unaccounted", "0.0", "-", "1", "-"]
        assert stages[-1].split() == ["total", "0.0", "-", "1"]

    def test_every_value_of_a_record_appears(self):
        """A fixed record rendered against itself as its own baseline."""
        run = committed_record()
        text = render_run_report(run, run)
        assert text.isascii()
        blocks = blocks_of(text)
        summary = [line.split() for line in block(blocks, "Plan summary")[2:]]
        assert summary == [key.split() + [str(value)]
                           for key, value in headline(run["results"]).items()]
        area = [re.split(r"\s{2,}", line) for line in block(blocks, "Table 2")[2:]]
        assert area == [
            [row.system, str(row.original_area), f"{row.fscan_percent:.1f}",
             f"{row.hscan_percent:.1f}", f"{row.bscan_percent:.1f}", row.socet_variant,
             f"{row.socet_chip_percent:.1f}", f"{row.fscan_bscan_total_percent:.1f}",
             f"{row.socet_total_percent:.1f}"]
            for row in record_rows(run, "area")]
        schedules = [re.split(r"\s{2,}", line)
                     for line in block(blocks, "Concurrent test-session scheduling")[2:]]
        assert schedules == [
            [row.system, row.variant, row.algorithm, str(row.serial_tat),
             str(row.makespan), str(row.sessions), f"{row.speedup:.2f}x"]
            for row in record_rows(run, "schedules")]
        testability = record_rows(run, "testability")
        *lines, grading = block(blocks, "Table 3")[2:]
        assert [re.split(r"\s{2,}", line) for line in lines] == [
            [row.system, row.configuration, f"{row.fault_coverage:.1f}",
             f"{row.test_efficiency:.1f}", "-" if row.tat is None else str(row.tat)]
            for row in testability]
        budget = run["results"]["grading"]
        assert grading == (
            f"Orig. and HSCAN: {budget['sequences']} random sequences x "
            f"{budget['cycles']} cycles, graded over a {budget['faults']}-fault "
            f"sample (seed {budget['seed']})")
        tat = {row.configuration: row.tat for row in testability}
        (speedup,) = [title for title in blocks if title.startswith("FSCAN-BSCAN:")]
        assert speedup == (
            f"FSCAN-BSCAN: {tat['FSCAN-BSCAN']} cycles; SOCET: {tat['SOCET Min. Area']} "
            f"(min area) / {tat['SOCET Min. TApp.']} (min TApp) -- "
            f"{tat['FSCAN-BSCAN'] / tat['SOCET Min. TApp.']:.1f}x faster")
        stages = {line.split()[0]: line for line in block(blocks, "Stage times")[2:]}
        rows = stage_rows(run["histograms"], run["counters"])
        for row in rows:
            cells = re.split(r"\s{2,}", stages[row["stage"]])
            assert int(cells[3]) == row["calls"], row["stage"]
        shown = [float(line.split()[1]) for name, line in stages.items() if name != "total"]
        assert sum(shown) == pytest.approx(float(stages["total"].split()[1]), abs=0.05 * len(rows))
        assert [line.split()[0] for line in block(blocks, "Hotspots")[2:]] == [
            row["section"] for row in hotspots(run["histograms"])]
        atpg = run["attrib"]["planes"]["atpg"]
        totals = block(blocks, "Search-effort attribution")[2].split()
        assert totals == [str(atpg["totals"][key]) for key in (
            "calls", "effort", "decisions", "backtracks", "implications")]
        faults = block(blocks, "Hardest faults")[2:]
        assert len(faults) == len(atpg["hard_faults"])
        for line, fault in zip(faults, atpg["hard_faults"]):
            cells = line.split()
            assert (cells[0], cells[4], cells[6]) == (
                fault["fault"], str(fault["effort"]), fault["status"])
        summary = run["attrib"]["planes"]["optimizer"]["summary"]
        convergence = dict(re.split(r"\s{2,}", line)
                           for line in block(blocks, "Optimizer convergence")[2:])
        for label, key in (("candidate moves", "candidates"), ("accepted", "accepted"),
                           ("rejected", "rejected"), ("design-point revisits", "revisits"),
                           ("trailing plateau", "plateau"),
                           ("wasted-move ratio", "wasted_ratio")):
            assert convergence[label] == str(summary[key]), label
        for kind, row in summary["yield"].items():
            assert convergence[f"{kind} moves accepted"] == (
                f"{row['accepted']}/{row['candidates']}")
        gated = [name for name in run["counters"] if not name.startswith(COUNTER_IGNORE)]
        assert block(blocks, "Counters vs baseline") == [
            f"All {len(gated)} counters match the baseline exactly "
            "(deterministic pipeline, unchanged work)."]


def run_ascii(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ASCII_LOCALE)
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, cwd=cwd)


class TestCliReport:
    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.txt"
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "profile", "System1", "--quick",
            "-o", str(out), "--ledger", str(ledger),
        ]) == 0
        assert capsys.readouterr().out == f"wrote run report to {out}\n"
        blocks = blocks_of(out.read_text())
        assert block(blocks, "Stage times")[-2].startswith("unaccounted ")
        assert "profile.total" not in "\n".join(block(blocks, "Hotspots"))
        (appended,) = RunLedger(ledger).records()
        assert appended["bench"] == "profile-System1-quick"
        assert appended["kind"] == "profile"

    def test_report_with_baseline_diff(self, tmp_path, capsys):
        from repro.cli import main

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
            "profile", "System1", "--quick", "--baseline", str(baseline),
        ]) == 0
        blocks = blocks_of(capsys.readouterr().out)
        assert ["baseline", "2026-08-06T12:00:00Z", "(unversioned)"] in [
            line.split() for line in block(blocks, "System1 pipeline run")]
        diff = block(blocks, "Counters vs baseline")
        assert ["phantom.counter", "3", "absent"] in [line.split() for line in diff]
        assert diff[-1] == "0 counters unchanged."

    def test_missing_baseline_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([
                "profile", "System1", "--quick",
                "--baseline", str(tmp_path / "none.jsonl"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", ["notes", "directory"])
    def test_bad_ledger_fails_before_the_run(self, kind, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        def pipeline(*_args, **_kwargs):
            raise AssertionError("the pipeline ran before --ledger was checked")

        monkeypatch.setattr("repro.flow.profile.run_pipeline", pipeline)
        path = tmp_path / "notes.txt"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"meeting notes, not a ledger\n")
        with pytest.raises(SystemExit) as exc:
            main(["profile", "System1", "--quick", "--ledger", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and err.count("\n") == 1 and str(path) in err
        if kind == "notes":
            assert path.read_bytes() == b"meeting notes, not a ledger\n"

    @pytest.mark.parametrize("command", ["profile"])
    @pytest.mark.parametrize("kind", ["directory", "missing-parent"])
    def test_bad_output_fails_before_the_run(self, command, kind, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        def pipeline(*_args, **_kwargs):
            raise AssertionError("the pipeline ran before -o was checked")

        monkeypatch.setattr("repro.flow.profile.run_pipeline", pipeline)
        out = tmp_path / "report"
        if kind == "directory":
            out.mkdir()
        else:
            out = tmp_path / "missing" / "report.txt"
        ledger = tmp_path / "runs.jsonl"
        with pytest.raises(SystemExit) as exc:
            main([command, "System1", "--quick", "-o", str(out), "--ledger", str(ledger)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot write ") and err.count("\n") == 1
        assert str(out) in err
        assert not ledger.exists()

    @pytest.mark.parametrize("command", ["profile"])
    def test_output_file_is_kept_when_the_run_fails(self, command, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.errors import ReproError

        def pipeline(*_args, **_kwargs):
            raise ReproError("the run failed")

        monkeypatch.setattr("repro.flow.profile.run_pipeline", pipeline)
        out = tmp_path / "report.txt"
        out.write_text("an earlier report\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "System1", "--quick", "-o", str(out)])
        assert exc.value.code == "repro: the run failed"
        assert out.read_text() == "an earlier report\n"

    def test_report_subcommand_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["report", "System1", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["compare", "System1"], "invalid choice: 'compare'"),
        (["explain", "System1", "--quick"], "invalid choice: 'explain'"),
        (["--metrics", "plan", "System1"], "unrecognized arguments: --metrics"),
        (["plan", "System1", "--metrics"], "unrecognized arguments: --metrics"),
        (["-v", "plan", "System1"], "unrecognized arguments: -v"),
        (["-vv", "profile", "System1", "--quick"], "unrecognized arguments: -vv"),
    ])
    def test_retired_surfaces_are_gone(self, argv, error, capsys, monkeypatch):
        """``profile`` is the one view of a pipeline run: the commands and
        global flags that printed other slices of it exit 2 from argparse,
        before any work."""
        from repro.cli import main

        def pipeline(*_args, **_kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr("repro.flow.profile.run_pipeline", pipeline)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err

    def test_stdout_is_ascii_under_an_ascii_locale(self, tmp_path):
        proc = run_ascii(["profile", "System1", "--quick"], tmp_path)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        text = proc.stdout.decode("ascii")
        for heading in HEADINGS:
            assert f"\n{heading}" in "\n" + text, heading

    def test_output_file_is_utf8_under_an_ascii_locale(self, tmp_path):
        out = tmp_path / "report.txt"
        proc = run_ascii(["profile", "System1", "--quick", "-o", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert out.read_bytes().decode("ascii").startswith("System1 pipeline run\n")
