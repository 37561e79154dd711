"""Tests for search-effort attribution (:mod:`repro.obs.attrib`) and
the pipeline run (:func:`repro.flow.profile.run_pipeline`) that carries
it to ``repro profile``, ``report`` and ``explain``."""

import json
import os

import pytest

from repro.errors import AttribSchemaError, LedgerSchemaError, UsageError
from repro.obs.attrib import (
    ATTRIB,
    AttribCollector,
    artifact_json,
    build_artifact,
    effort_units,
    require_valid_artifact,
    validate_artifact,
)

from tests.test_kernel import reference_graders

#: bounds test runtime while keeping PODEM backtracking and fault-sim
#: sweeps live on every example core
MAX_FAULTS = 12


@pytest.fixture(autouse=True)
def attribution_off():
    """Every test starts and ends with the module collector disabled."""
    ATTRIB.enabled = False
    ATTRIB.reset()
    yield
    ATTRIB.enabled = False
    ATTRIB.reset()


def artifact_of(collector, top_k=5):
    """The collector's state as the ``repro-attrib`` artifact reports it."""
    return build_artifact(collector, {}, system="t", seed=0, quick=True, top_k=top_k)


def explain(system="System1", **kwargs):
    """One pipeline run's ledger record (its artifact under ``attrib``)."""
    from repro.flow.profile import run_pipeline

    kwargs.setdefault("max_faults", MAX_FAULTS)
    return run_pipeline(system, **kwargs)


def explained_json(system="System1", **kwargs):
    """The artifact text ``repro explain`` would write for the run."""
    return artifact_json(explain(system, **kwargs)["attrib"])


# ----------------------------------------------------------------------
# the collector
# ----------------------------------------------------------------------
class TestModes:
    def test_default_is_off(self):
        assert AttribCollector().enabled is False

    def test_effort_units_weighs_backtracks_double(self):
        assert effort_units(10, 3, 20) == 10 + 6 + 20


class TestCollector:
    def build(self):
        collector = AttribCollector()
        collector.enabled = True
        collector.podem_record({
            "backtracks": 2, "cone_depth": 3, "decisions": 5, "gate": "g1",
            "gate_kind": "and", "implications": 7, "netlist": "n", "pin": None,
            "restarts": 0, "site": "stem", "status": "detected", "stuck": 0,
        })
        collector.move_event(
            kind="upgrade", subject="CPU", version_from=1, version_to=2,
            tat_before=100, tat_after=90, outcome="accept",
            point=(("CPU", 1),),
        )
        return collector

    def test_reset_keeps_mode(self):
        collector = self.build()
        collector.reset()
        assert collector.enabled
        assert artifact_of(collector) == artifact_of(AttribCollector())

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
        from repro.atpg.podem import podem
        from repro.designs import build_gcd
        from repro.elaborate import elaborate
        from repro.faults.model import full_fault_universe

        netlist = elaborate(build_gcd()).netlist
        for fault in full_fault_universe(netlist)[:3]:
            podem(netlist, fault)
        assert artifact_of(ATTRIB)["planes"]["atpg"]["totals"]["calls"] == 0


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
        ATTRIB.enabled = True
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
# the pipeline run's artifact: validity, reconciliation, determinism
# ----------------------------------------------------------------------
class TestExplain:
    def test_artifact_is_schema_valid(self):
        artifact = explain()["attrib"]
        assert validate_artifact(artifact) == []
        assert require_valid_artifact(artifact) is artifact

    def test_reconciliation_is_exact(self):
        artifact = explain()["attrib"]
        for name, row in sorted(artifact["reconciliation"].items()):
            assert row["ok"], f"{name}: attrib {row['attrib']} != counter {row['counter']}"

    def test_effort_totals_reconcile_with_counters(self):
        record = explain()
        totals = record["attrib"]["planes"]["atpg"]["totals"]
        assert totals["decisions"] == record["counters"]["atpg.podem.decisions"]
        assert totals["backtracks"] == record["counters"]["atpg.podem.backtracks"]

    def test_byte_stable_across_runs(self):
        assert explained_json() == explained_json()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_byte_identical_across_job_counts(self, jobs):
        # the collector and the caches are process-wide: System1's
        # artifact must not depend on how many explain jobs ran before it
        alone = explained_json()
        for number in range(2, jobs + 1):
            explain(f"System{number}")
        assert explained_json() == alone

    @pytest.mark.parametrize(
        "system", ["System1", "System2", "System3", "System4"]
    )
    def test_byte_identical_across_backends(self, system):
        # grading decides which faults PODEM targets, and the kernels
        # grade exactly as the scalar reference graders do, so swapping
        # those in changes no byte
        with reference_graders():
            reference = explained_json(system)
        assert explained_json(system) == reference

    def test_mode_restored_after_run(self):
        explain()
        assert ATTRIB.enabled is False  # the run switched it on, then back
        ATTRIB.enabled = True
        explain()
        assert ATTRIB.enabled is True

    def test_unknown_system_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown system"):
            explain("System9")

    def test_optimizer_plane_consistency(self):
        plane = explain()["attrib"]["planes"]["optimizer"]
        summary = plane["summary"]
        events = plane["events"]
        assert summary["candidates"] == len(events)
        assert summary["accepted"] + summary["rejected"] == len(events)
        assert [event["seq"] for event in events] == list(range(len(events)))
        yields = summary["yield"]
        assert sum(row["candidates"] for row in yields.values()) == len(events)

    def test_hard_faults_ranked_by_effort(self):
        artifact = explain(top_k=5)["attrib"]
        hard = artifact["planes"]["atpg"]["hard_faults"]
        assert len(hard) <= 5
        efforts = [row["effort"] for row in hard]
        assert efforts == sorted(efforts, reverse=True)

    def test_ledger_record_embeds_artifact(self, tmp_path):
        from repro.obs.ledger import RunLedger

        record = explain()
        assert record["kind"] == "profile"
        assert record["attrib"]["schema"] == "repro-attrib"
        assert validate_artifact(record["attrib"]) == []
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record)
        assert ledger.latest(record["bench"])["attrib"] == record["attrib"]

    def test_ledger_rejects_corrupt_artifact(self):
        from repro.obs.ledger import make_record

        bad = dict(explain()["attrib"])
        bad["schema"] = "not-attrib"
        with pytest.raises(LedgerSchemaError, match="attrib:"):
            make_record("profile-System1", [0.1], counters={}, kind="profile",
                        attrib=bad)


# ----------------------------------------------------------------------
# the validator and its CLI entry point
# ----------------------------------------------------------------------
class TestValidator:
    def artifact(self):
        return build_artifact(AttribCollector(), {}, system="System1", seed=0,
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

    def test_rejects_v1_naming_its_version(self):
        artifact = self.artifact()
        artifact["schema_version"] = 1
        assert any("schema_version 1" in p for p in validate_artifact(artifact))

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
        from repro.obs.ledger import main as validator_main

        good = tmp_path / "good.json"
        good.write_text(artifact_json(self.artifact()))
        bad = tmp_path / "bad.json"
        broken = self.artifact()
        broken["planes"]["atpg"]["totals"]["decisions"] = -1
        bad.write_text(artifact_json(broken))
        assert validator_main([str(good)]) == 0
        assert validator_main([str(bad)]) == 1
        assert validator_main([str(tmp_path / "missing.json")]) == 1
        assert validator_main([]) == 2
        out = capsys.readouterr()
        assert f"ok   {good} (attrib)" in out.out
        assert f"FAIL {bad}: " in out.out and "decisions" in out.out

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
        ["explain", "System1", "--top", "0"],
        ["explain", "System1", "--quick", "--top", "-3"],
        ["report", "System1", "--quick", "--top", "0"],
        ["report", "System1", "--quick", "--top", "-2"],
        ["report", "System1", "--quick", "--top", "many"],
    ])
    def test_bad_top_exits_2_before_any_work(self, argv, capsys, monkeypatch):
        def pipeline(*_args, **_kwargs):
            raise AssertionError("the pipeline ran before --top was checked")

        monkeypatch.setattr("repro.flow.profile.run_pipeline", pipeline)
        assert self.run_cli(argv) == 2
        assert "--top" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["regress", "--ledger", "{dir}"],
        ["regress", "--ledger", "{ledger}", "--baseline", "{dir}"],
        ["regress", "--ledger", "{bogus}"],
        ["regress", "--ledger", "{ledger}", "--baseline", "{bogus}"],
        ["report", "System1", "--quick", "--baseline", "{dir}"],
        ["explain", "System1", "--quick", "-o", "{dir}"],
        ["profile", "System1", "--quick", "--ledger", "{dir}"],
        ["report", "System1", "--quick", "-o", "{dir}"],
        ["certify", "System1", "-o", "{dir}"],
        pytest.param(["export", "System1", "-o", "{full}"], marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full device")),
    ])
    def test_path_mistake_exits_2_with_one_line(self, argv, tmp_path, capsys):
        from repro.obs.ledger import RunLedger, make_record

        paths = {
            "dir": tmp_path / "a-directory",
            "bogus": tmp_path / "not-a-ledger.txt",
            "ledger": tmp_path / "ledger.jsonl",
            "full": "/dev/full",  # every write fails: no space left on device
        }
        paths["dir"].mkdir()
        paths["bogus"].write_text("not a ledger\n")
        RunLedger(paths["ledger"]).append(make_record("b", [1.0], counters={}))
        argv = [arg.format(**paths) for arg in argv]
        bad = next(str(paths[key]) for key in ("dir", "bogus", "full")
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

    def test_explain_json_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "attrib.json"
        code = self.run_cli(
            ["explain", "System1", "--quick", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_artifact(payload) == []
        assert artifact_json(payload) == out.read_text()

    def test_explain_stdout_is_the_artifact(self, capsys):
        assert self.run_cli(["explain", "System1", "--quick", "--top", "3"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert validate_artifact(payload) == []
        assert artifact_json(payload) == out
        assert payload["top_k"] == 3 and len(payload["planes"]["atpg"]["hard_faults"]) == 3

    # the explain sections render through `repro report`, whose run
    # record always carries the attribution artifact
    def test_explain_markdown_report(self, capsys):
        code = self.run_cli(["report", "System1", "--quick", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Search-effort attribution" in out
        assert "Hardest faults" in out
        assert "Optimizer convergence" in out
        assert "| unaccounted |" in out
        assert "`profile.total`" not in out  # the root is not a hotspot

    def test_explain_html_report(self, tmp_path):
        out = tmp_path / "report.html"
        code = self.run_cli(
            ["report", "System1", "--quick", "-f", "html", "-o", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "Search-effort attribution" in text
        assert "Hardest faults" in text
        assert text.lstrip().startswith("<")

    def test_profile_ledger_embeds_artifact(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        assert self.run_cli(
            ["profile", "System1", "--quick", "--ledger", str(ledger)]
        ) == 0
        record = RunLedger(ledger).latest("profile-System1-quick")
        assert record["kind"] == "profile"
        assert validate_artifact(record["attrib"]) == []
        assert record["counters"]["attrib.podem.records"] > 0


# ----------------------------------------------------------------------
# attribution and the regression gate
# ----------------------------------------------------------------------
class TestExecutorDeltas:
    def test_regress_gate_ignores_attrib_counters(self):
        from repro.obs.regress import COUNTER_IGNORE as ignored

        assert ignored == ("exec.", "attrib.")


class TestRunPipeline:
    def test_attribution_changes_no_work(self):
        # the pipeline run with the collector on, against the driver's
        # own stage sequence with it off: a hook that changed a decision
        # would move a work counter or a result
        from repro.designs import system_builders
        from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline, run_stages
        from repro.obs import METRICS

        run = run_pipeline("System1", max_faults=QUICK_MAX_FAULTS)
        assert not ATTRIB.enabled
        METRICS.reset()
        results = run_stages(system_builders()["System1"], 0, QUICK_MAX_FAULTS)
        plain = dict(METRICS.counters())

        def work(counters):
            return {name: value for name, value in counters.items()
                    if not name.startswith(("attrib.", "exec."))}

        assert run["counters"]["attrib.podem.records"] > 0
        assert plain["attrib.podem.records"] == 0
        assert work(run["counters"]) == work(plain)
        assert run["results"] == results
