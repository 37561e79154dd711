"""Tests for search-effort attribution (:mod:`repro.obs.attrib`) and
the ``repro explain`` driver/CLI built on it."""

import json

import pytest

from repro.errors import AttribSchemaError, LedgerSchemaError, UsageError
from repro.obs.attrib import (
    ATTRIB,
    ATTRIB_MODES,
    AttribCollector,
    artifact_json,
    build_artifact,
    effort_units,
    main as attrib_main,
    require_valid_artifact,
    resolve_attrib_mode,
    validate_artifact,
)

#: bounds test runtime while keeping PODEM backtracking and fault-sim
#: sweeps live on every example core
MAX_FAULTS = 12


@pytest.fixture(autouse=True)
def attribution_off():
    """Every test starts and ends with the module collector disabled."""
    ATTRIB.configure("off")
    ATTRIB.reset()
    yield
    ATTRIB.configure("off")
    ATTRIB.reset()


def artifact_of(collector, top_k=5):
    """The collector's state as the ``repro-attrib`` artifact reports it."""
    return build_artifact(collector, {}, system="t", seed=0, quick=True, top_k=top_k)


def explain(system="System1", **kwargs):
    from repro.flow.explain import explain_system

    kwargs.setdefault("max_faults", MAX_FAULTS)
    return explain_system(system, **kwargs)


# ----------------------------------------------------------------------
# mode resolution and the collector
# ----------------------------------------------------------------------
class TestModes:
    def test_resolve_from_values(self):
        assert resolve_attrib_mode("") == "off"
        assert resolve_attrib_mode("0") == "off"
        assert resolve_attrib_mode("OFF") == "off"
        assert resolve_attrib_mode("no") == "off"
        assert resolve_attrib_mode("1") == "on"
        assert resolve_attrib_mode("on") == "on"
        assert resolve_attrib_mode("Yes") == "on"
        assert resolve_attrib_mode("deep") == "deep"

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ATTRIB", raising=False)
        assert resolve_attrib_mode() == "off"
        monkeypatch.setenv("REPRO_ATTRIB", "deep")
        assert resolve_attrib_mode() == "deep"

    def test_bad_value_is_usage_error(self):
        with pytest.raises(UsageError, match="REPRO_ATTRIB"):
            resolve_attrib_mode("sideways")

    def test_configure_rejects_unknown_mode(self):
        with pytest.raises(UsageError):
            AttribCollector().configure("sometimes")

    def test_default_is_off(self):
        collector = AttribCollector()
        assert collector.mode == "off"
        assert not collector.enabled
        assert not collector.deep
        assert "off" in ATTRIB_MODES

    def test_effort_units_weighs_backtracks_double(self):
        assert effort_units(10, 3, 20) == 10 + 6 + 20


class TestCollector:
    def build(self, mode="on"):
        collector = AttribCollector()
        collector.configure(mode)
        collector.podem_record({
            "backtracks": 2, "cone_depth": 3, "decisions": 5, "gate": "g1",
            "gate_kind": "and", "implications": 7, "netlist": "n", "pin": None,
            "restarts": 0, "site": "stem", "status": "detected", "stuck": 0,
        })
        collector.sim_good({"1:and": 2, "2:or": 1}, words=3)
        collector.sim_sweep(40)
        collector.sim_cone({"1:and": 2}, "n::g1")
        collector.move_event(
            kind="upgrade", subject="CPU", version_from=1, version_to=2,
            tat_before=100, tat_after=90, outcome="accept",
            point=(("CPU", 1),),
        )
        return collector

    def test_reset_keeps_mode(self):
        collector = self.build("deep")
        collector.reset()
        assert collector.mode == "deep"
        fresh = AttribCollector()
        fresh.configure("deep")
        assert artifact_of(collector) == artifact_of(fresh)

    def test_deep_mode_tracks_cone_sites(self):
        collector = self.build("deep")
        collector.sim_cone({"1:and": 1}, "n::g1")
        assert artifact_of(collector)["planes"]["sim"]["cones"] == {"n::g1": 2}

    def test_revisited_point_classifies_as_cache_hit(self):
        collector = self.build()
        collector.move_event(
            kind="upgrade", subject="CPU", version_from=2, version_to=3,
            tat_before=90, tat_after=95, outcome="reject-no-gain",
            point=(("CPU", 1),),
        )
        plane = artifact_of(collector)["planes"]["optimizer"]
        assert [event["cache"] for event in plane["events"]] == ["miss", "hit"]
        assert plane["summary"]["revisits"] == 1

    def test_hooks_are_noops_when_off(self):
        collector = AttribCollector()
        collector.sim_sweep(10)  # scalars still count; gating is caller-side
        assert not collector.enabled


# ----------------------------------------------------------------------
# plane 1 wiring: PODEM effort records
# ----------------------------------------------------------------------
class TestPodemPlane:
    def test_podem_counts_implications_and_restarts(self):
        from repro.atpg.podem import podem
        from repro.designs import build_gcd
        from repro.elaborate import elaborate
        from repro.faults.model import full_fault_universe

        netlist = elaborate(build_gcd()).netlist
        ATTRIB.configure("on")
        ATTRIB.reset()
        for fault in full_fault_universe(netlist)[:6]:
            result = podem(netlist, fault)
            assert result.implications >= 1
            assert result.restarts >= 0
        atpg = artifact_of(ATTRIB, top_k=6)["planes"]["atpg"]
        assert atpg["totals"]["calls"] == 6
        for entry in atpg["hard_faults"]:
            assert entry["site"] in ("stem", "pin", "flop-pin")
            assert entry["status"] in ("detected", "aborted", "redundant")
            assert entry["cone_depth"] >= 0


# ----------------------------------------------------------------------
# the explain driver: artifact validity, reconciliation, determinism
# ----------------------------------------------------------------------
class TestExplain:
    def test_artifact_is_schema_valid(self):
        artifact = explain().artifact
        assert validate_artifact(artifact) == []
        assert require_valid_artifact(artifact) is artifact

    def test_reconciliation_is_exact(self):
        artifact = explain().artifact
        for name, row in sorted(artifact["reconciliation"].items()):
            assert row["ok"], f"{name}: attrib {row['attrib']} != counter {row['counter']}"

    def test_effort_totals_reconcile_with_counters(self):
        report = explain()
        totals = report.artifact["planes"]["atpg"]["totals"]
        assert totals["decisions"] == report.all_counters["atpg.podem.decisions"]
        assert totals["backtracks"] == report.all_counters["atpg.podem.backtracks"]
        sim = report.artifact["planes"]["sim"]
        assert sim["good_batches"] == report.all_counters["faultsim.batches"]
        assert sim["sweep_candidates"] == report.all_counters["faultsim.events"]

    def test_byte_stable_across_runs(self):
        assert explain().artifact_json() == explain().artifact_json()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_byte_identical_across_job_counts(self, jobs):
        # the collector and the caches are process-wide: System1's
        # artifact must not depend on how many explain jobs ran before it
        alone = explain().artifact_json()
        for number in range(2, jobs + 1):
            explain(f"System{number}")
        assert explain().artifact_json() == alone

    @pytest.mark.parametrize(
        "system", ["System1", "System2", "System3", "System4"]
    )
    def test_byte_identical_across_backends(self, system, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "scalar")
        scalar = explain(system).artifact_json()
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        assert explain(system).artifact_json() == scalar

    def test_mode_restored_after_run(self, monkeypatch):
        monkeypatch.delenv("REPRO_ATTRIB", raising=False)
        ATTRIB.configure("deep")
        report = explain()
        assert ATTRIB.mode == "deep"  # session mode restored afterwards
        assert not report.artifact["deep"]  # env off promotes to "on" only
        monkeypatch.setenv("REPRO_ATTRIB", "deep")
        assert explain().artifact["deep"]

    def test_unknown_system_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown system"):
            explain("System9")

    def test_optimizer_plane_consistency(self):
        plane = explain().artifact["planes"]["optimizer"]
        summary = plane["summary"]
        events = plane["events"]
        assert summary["candidates"] == len(events)
        assert summary["accepted"] + summary["rejected"] == len(events)
        assert [event["seq"] for event in events] == list(range(len(events)))
        yields = summary["yield"]
        assert sum(row["candidates"] for row in yields.values()) == len(events)

    def test_hard_faults_ranked_by_effort(self):
        artifact = explain(top_k=5).artifact
        hard = artifact["planes"]["atpg"]["hard_faults"]
        assert len(hard) <= 5
        efforts = [row["effort"] for row in hard]
        assert efforts == sorted(efforts, reverse=True)

    def test_deep_mode_adds_cone_sites(self):
        report = explain(mode="deep")
        sim = report.artifact["planes"]["sim"]
        assert "cones" in sim
        assert sim["cone_walks"] == sum(sim["cones"].values())

    def test_ledger_record_embeds_artifact(self, tmp_path):
        from repro.obs.ledger import RunLedger

        report = explain()
        record = report.ledger_record()
        assert record["kind"] == "explain"
        assert record["attrib"] == report.artifact
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record)
        assert ledger.latest(record["bench"])["attrib"] == report.artifact

    def test_ledger_rejects_corrupt_artifact(self):
        from repro.obs.ledger import make_record

        bad = dict(explain().artifact)
        bad["schema"] = "not-attrib"
        with pytest.raises(LedgerSchemaError, match="attrib:"):
            make_record("explain-System1", [0.1], counters={}, kind="explain",
                        attrib=bad)


# ----------------------------------------------------------------------
# the validator and its CLI entry point
# ----------------------------------------------------------------------
class TestValidator:
    def artifact(self):
        collector = AttribCollector()
        collector.configure("on")
        return build_artifact(collector, {}, system="System1", seed=0,
                              quick=True, top_k=10)

    def test_empty_run_validates(self):
        assert validate_artifact(self.artifact()) == []

    def test_rejects_non_object(self):
        assert validate_artifact([]) != []
        assert validate_artifact(None) != []

    def test_rejects_wrong_schema_marker(self):
        artifact = self.artifact()
        artifact["schema"] = "repro-ledger"
        assert any("schema" in p for p in validate_artifact(artifact))

    def test_rejects_newer_version(self):
        artifact = self.artifact()
        artifact["schema_version"] = 99
        assert any("newer" in p for p in validate_artifact(artifact))

    def test_rejects_negative_totals(self):
        artifact = self.artifact()
        artifact["planes"]["atpg"]["totals"]["decisions"] = -1
        assert validate_artifact(artifact) != []

    def test_rejects_bad_bucket_key(self):
        artifact = self.artifact()
        artifact["planes"]["sim"]["buckets"]["weird"] = {
            "good_words": 1, "sweep_words": 0,
        }
        assert any("bucket" in p for p in validate_artifact(artifact))

    def test_rejects_gapped_event_sequence(self):
        artifact = self.artifact()
        artifact["planes"]["optimizer"]["events"] = [{
            "cache": "none", "kind": "upgrade", "outcome": "accept",
            "seq": 3, "subject": "CPU", "tat_after": 1, "tat_before": 2,
            "version_from": 1, "version_to": 2,
        }]
        assert any("seq" in p for p in validate_artifact(artifact))

    def test_rejects_inconsistent_reconciliation(self):
        artifact = self.artifact()
        name = sorted(artifact["reconciliation"])[0]
        artifact["reconciliation"][name]["ok"] = False
        assert any("reconciliation" in p for p in validate_artifact(artifact))

    def test_require_valid_raises(self):
        with pytest.raises(AttribSchemaError):
            require_valid_artifact({"schema": "repro-attrib"})

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(artifact_json(self.artifact()))
        bad = tmp_path / "bad.json"
        bad.write_text("{}\n")
        assert attrib_main([str(good)]) == 0
        assert attrib_main([str(bad)]) == 1
        assert attrib_main([str(tmp_path / "missing.json")]) == 1
        assert attrib_main([]) == 2
        out = capsys.readouterr()
        assert "ok" in out.out and "FAIL" in out.out

    def test_artifact_json_is_canonical(self):
        artifact = self.artifact()
        text = artifact_json(artifact)
        assert text.endswith("\n")
        assert json.loads(text) == artifact
        assert artifact_json(json.loads(text)) == text


# ----------------------------------------------------------------------
# CLI behavior (satellite: usage-grade baseline errors)
# ----------------------------------------------------------------------
class TestCli:
    def run_cli(self, argv):
        from repro.cli import main

        try:
            return main(argv)
        except SystemExit as error:
            return error.code

    @pytest.mark.parametrize("argv", [
        ["explain", "System1", "--top", "0", "--json"],
        ["explain", "System1", "--quick", "--top", "-3"],
        ["report", "System1", "--quick", "--top", "0"],
        ["report", "System1", "--quick", "--top", "-2"],
        ["report", "System1", "--quick", "--top", "many"],
    ])
    def test_bad_top_exits_2_before_any_work(self, argv, capsys, monkeypatch):
        def pipeline(*_args, **_kwargs):
            raise AssertionError("the pipeline ran before --top was checked")

        monkeypatch.setattr("repro.flow.explain.explain_system", pipeline)
        monkeypatch.setattr("repro.flow.profile.profile_system", pipeline)
        assert self.run_cli(argv) == 2
        assert "--top" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["regress", "--ledger", "{dir}"],
        ["regress", "--ledger", "{ledger}", "--baseline", "{dir}"],
        ["regress", "--ledger", "{bogus}"],
        ["regress", "--ledger", "{ledger}", "--baseline", "{bogus}"],
        ["report", "System1", "--quick", "--baseline", "{dir}"],
        ["explain", "System1", "--quick", "--baseline", "{dir}"],
        ["profile", "System1", "--quick", "--ledger", "{dir}"],
        ["report", "System1", "--quick", "-o", "{dir}"],
        ["plan", "System1", "--trace", "{dir}"],
    ])
    def test_path_mistake_exits_2_with_one_line(self, argv, tmp_path, capsys):
        from repro.obs.ledger import RunLedger, make_record

        paths = {
            "dir": tmp_path / "a-directory",
            "bogus": tmp_path / "not-a-ledger.txt",
            "ledger": tmp_path / "ledger.jsonl",
        }
        paths["dir"].mkdir()
        paths["bogus"].write_text("not a ledger\n")
        RunLedger(paths["ledger"]).append(make_record("b", [1.0], counters={}))
        argv = [arg.format(**paths) for arg in argv]
        bad = next(str(paths[key]) for key in ("dir", "bogus")
                   if str(paths[key]) in argv)
        assert self.run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if bad in line] == [
            err.strip()
        ]

    def test_report_missing_baseline_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = self.run_cli(
            ["report", "System1", "--quick", "--baseline", str(missing)]
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_report_non_ledger_baseline_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("this is not a ledger\n")
        code = self.run_cli(
            ["report", "System1", "--quick", "--baseline", str(bogus)]
        )
        assert code == 2
        assert str(bogus) in capsys.readouterr().err

    def test_explain_missing_baseline_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = self.run_cli(
            ["explain", "System1", "--quick", "--baseline", str(missing)]
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_explain_non_ledger_baseline_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("also not a ledger\n")
        code = self.run_cli(
            ["explain", "System1", "--quick", "--baseline", str(bogus)]
        )
        assert code == 2
        assert str(bogus) in capsys.readouterr().err

    def test_explain_json_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "attrib.json"
        code = self.run_cli(
            ["explain", "System1", "--quick", "--json", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_artifact(payload) == []
        assert artifact_json(payload) == out.read_text()

    def test_explain_markdown_report(self, tmp_path, capsys):
        code = self.run_cli(["explain", "System1", "--quick", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Search-effort attribution" in out
        assert "Hardest faults" in out
        assert "Optimizer convergence" in out
        assert "| unaccounted |" in out
        assert "`explain.total`" not in out  # the root is not a hotspot

    def test_explain_html_report(self, tmp_path):
        out = tmp_path / "report.html"
        code = self.run_cli(
            ["explain", "System1", "--quick", "--html", "-o", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "Search-effort attribution" in text
        assert text.lstrip().startswith("<")

    def test_explain_ledger_roundtrip(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        code = self.run_cli(
            ["explain", "System1", "--quick", "--json", "--ledger", str(ledger),
             "-o", str(tmp_path / "a.json")]
        )
        assert code == 0
        record = RunLedger(ledger).latest("explain-System1-quick")
        assert record["kind"] == "explain"
        assert validate_artifact(record["attrib"]) == []


# ----------------------------------------------------------------------
# attribution deltas and the regression gate
# ----------------------------------------------------------------------
class TestExecutorDeltas:
    def test_regress_gate_ignores_attrib_counters(self):
        from repro.obs.regress import COUNTER_IGNORE as ignored

        assert "attrib." in ignored
        assert "explain." in ignored
