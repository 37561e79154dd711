"""Tests for search-effort attribution (:mod:`repro.obs.attrib`), its
two sources (each ATPG outcome's PODEM results, the optimizer's moves),
and the pipeline run (:func:`repro.flow.profile.run_pipeline`) whose
ledger record carries it (``repro profile --ledger``)."""

import json
import os

import pytest

from repro.errors import LedgerSchemaError, UsageError
from repro.obs.attrib import ARTIFACT_SHAPE, artifact_json, build_artifact, effort_units
from repro.util.schema import check

from tests.reference_graders import reference_graders

#: bounds test runtime while keeping PODEM backtracking and fault-sim
#: sweeps live on every example core
MAX_FAULTS = 12

#: one well-formed ``hard_faults`` entry
HARD_FAULT = {
    "abort_cause": None, "backtracks": 0, "calls": 1, "cone_depth": 2,
    "decisions": 3, "effort": 4, "fault": "n::g/sa0", "gate_kind": "and",
    "implications": 1, "restarts": 0, "site": "stem", "status": "detected",
}


def artifact_of(atpg=(), moves=()):
    """The ``repro-attrib`` artifact of ``(netlist, AtpgOutcome)`` pairs
    and optimizer moves."""
    return build_artifact(list(atpg), list(moves), {}, system="t", seed=0, quick=True)


def explain(system="System1", **kwargs):
    """One pipeline run's ledger record (its artifact under ``attrib``)."""
    from repro.flow.profile import run_pipeline

    kwargs.setdefault("max_faults", MAX_FAULTS)
    return run_pipeline(system, **kwargs)


def explained_json(system="System1", **kwargs):
    """The run's artifact as canonical JSON (the golden fixture's form)."""
    return artifact_json(explain(system, **kwargs)["attrib"])


def gcd_atpg():
    """The GCD core's netlist and its full ATPG outcome."""
    from repro.atpg.combinational import CombinationalAtpg
    from repro.designs import build_gcd
    from repro.elaborate import elaborate

    netlist = elaborate(build_gcd()).netlist
    return netlist, CombinationalAtpg(netlist, seed=0).run()


# ----------------------------------------------------------------------
# plane 1: the PODEM results an ATPG run keeps
# ----------------------------------------------------------------------
class TestPodemPlane:
    def test_effort_units_weighs_backtracks_double(self):
        assert effort_units(10, 3, 20) == 10 + 6 + 20

    def test_podem_counts_implications_and_restarts(self):
        from repro.atpg.podem import PodemStatus

        netlist, outcome = gcd_atpg()
        for _fault, result in outcome.searches:
            # only a fault no observation point can see skips the search
            searched = result.decisions or result.status is not PodemStatus.REDUNDANT
            assert result.implications >= (1 if searched else 0)
            assert result.restarts >= 0
        atpg = artifact_of([(netlist, outcome)])["planes"]["atpg"]
        assert atpg["totals"]["calls"] == len(outcome.searches) > 10
        assert len(atpg["hard_faults"]) == 10
        for entry in atpg["hard_faults"]:
            assert entry["site"] in ("stem", "pin", "flop-pin")
            assert entry["status"] in ("detected", "aborted", "redundant")
            assert entry["cone_depth"] >= 0

    def test_fault_sites_are_classified(self):
        from repro.atpg.combinational import AtpgOutcome
        from repro.atpg.podem import podem
        from repro.faults.coverage import CoverageReport
        from repro.faults.model import Fault
        from repro.gates import GateKind, GateNetlist

        netlist = GateNetlist("n")
        netlist.add_gate("a", GateKind.INPUT)
        netlist.add_gate("b", GateKind.INPUT)
        netlist.add_gate("g", GateKind.AND, ["a", "b"])
        netlist.add_gate("q", GateKind.DFF, ["g"])
        netlist.add_gate("o", GateKind.OUTPUT, ["q"])
        netlist.validate()
        faults = [Fault("g", None, 0), Fault("g", 0, 0), Fault("q", 0, 1)]
        outcome = AtpgOutcome([], CoverageReport(total=3, detected=0),
                              searches=[(fault, podem(netlist, fault)) for fault in faults])
        hard = artifact_of([(netlist, outcome)])["planes"]["atpg"]["hard_faults"]
        assert {entry["fault"]: (entry["site"], entry["gate_kind"]) for entry in hard} == {
            "n::g/sa0": ("stem", "and"),
            "n::g.pin0/sa0": ("pin", "and"),
            "n::q.pin0/sa1": ("flop-pin", "dff"),
        }

    def test_searches_sum_to_podem_counters(self):
        from repro.atpg.podem import PodemStatus
        from repro.obs import METRICS

        names = ("calls", "decisions", "backtracks", "aborts", "redundant")
        before = {name: METRICS.counter(f"atpg.podem.{name}").value for name in names}
        _netlist, outcome = gcd_atpg()
        delta = {
            name: METRICS.counter(f"atpg.podem.{name}").value - before[name]
            for name in names
        }
        results = [result for _fault, result in outcome.searches]
        assert delta == {
            "calls": len(results),
            "decisions": sum(result.decisions for result in results),
            "backtracks": sum(result.backtracks for result in results),
            "aborts": sum(result.status is PodemStatus.ABORTED for result in results),
            "redundant": sum(result.status is PodemStatus.REDUNDANT for result in results),
        }
        assert delta["backtracks"] > 0


# ----------------------------------------------------------------------
# plane 2: the moves an optimizer keeps
# ----------------------------------------------------------------------
class TestOptimizerMoves:
    def test_moves_fill_on_every_call(self):
        from repro.designs import build_system1
        from repro.soc.optimizer import SocetOptimizer, design_space

        soc = build_system1()
        optimizer = SocetOptimizer(soc)
        assert optimizer.moves == []
        optimizer.minimize_tat(10_000)
        after_tat = len(optimizer.moves)
        assert after_tat > 0
        optimizer.minimize_area(min(point.tat for point in design_space(soc)))
        moves = optimizer.moves
        assert len(moves) > after_tat
        assert [move["seq"] for move in moves] == list(range(len(moves)))
        plane = artifact_of(moves=moves)["planes"]["optimizer"]
        assert plane["summary"]["candidates"] == len(moves)
        assert check(ARTIFACT_SHAPE, artifact_of(moves=moves)) == []

    def test_revisited_point_classifies_as_cache_hit(self):
        from repro.designs import build_system1
        from repro.soc import plan_soc_test
        from repro.soc.optimizer import SocetOptimizer

        soc = build_system1()
        plan = plan_soc_test(soc)
        upgrade = ("upgrade", "CPU", 1, 2)
        optimizer = SocetOptimizer(soc)
        optimizer._record_move(upgrade, plan, plan, "accept", set())
        optimizer._record_move(upgrade, plan, plan, "reject-no-gain", set())
        optimizer._record_move(upgrade, plan, plan, "accept", {("CPU", "DATA")})
        optimizer._record_move(upgrade, plan, None, "reject-no-gain", set())
        assert [move["cache"] for move in optimizer.moves] == ["miss", "hit", "miss", "none"]
        plane = artifact_of(moves=optimizer.moves)["planes"]["optimizer"]
        assert plane["summary"]["revisits"] == 1
        # the points are the optimizer's own: another has evaluated none
        other = SocetOptimizer(soc)
        other._record_move(upgrade, plan, plan, "accept", set())
        assert other.moves[0]["cache"] == "miss"


# ----------------------------------------------------------------------
# the pipeline run's artifact: validity, reconciliation, determinism
# ----------------------------------------------------------------------
class TestExplain:
    def test_artifact_is_schema_valid(self):
        assert check(ARTIFACT_SHAPE, explain()["attrib"]) == []

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

    @pytest.mark.parametrize("last_system", [2, 4])
    def test_byte_identical_after_other_systems(self, last_system):
        # the registry and the caches are process-wide: System1's
        # artifact must not depend on how many runs came before it
        alone = explained_json()
        for number in range(2, last_system + 1):
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
        artifact = explain()["attrib"]
        hard = artifact["planes"]["atpg"]["hard_faults"]
        assert 0 < len(hard) <= artifact["top_k"] == 10
        efforts = [row["effort"] for row in hard]
        assert efforts == sorted(efforts, reverse=True)

    def test_ledger_record_embeds_artifact(self, tmp_path):
        from repro.obs.ledger import RunLedger

        record = explain()
        assert record["kind"] == "profile"
        assert record["attrib"]["schema"] == "repro-attrib"
        assert check(ARTIFACT_SHAPE, record["attrib"]) == []
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record)
        assert ledger.latest(record["bench"])["attrib"] == record["attrib"]

    def test_ledger_rejects_corrupt_artifact(self):
        from repro.obs.ledger import make_record

        bad = dict(explain()["attrib"])
        bad["schema"] = "not-attrib"
        with pytest.raises(LedgerSchemaError, match=r"\$\.attrib\.schema: "):
            make_record("profile-System1", [0.1], counters={}, kind="profile",
                        attrib=bad)


# ----------------------------------------------------------------------
# the artifact's shape and ``repro validate``
# ----------------------------------------------------------------------
class TestValidator:
    def artifact(self):
        return build_artifact([], [], {}, system="System1", seed=0, quick=True)

    def test_empty_run_validates(self):
        assert check(ARTIFACT_SHAPE, self.artifact()) == []

    def test_rejects_non_object(self):
        assert check(ARTIFACT_SHAPE, []) != []
        assert check(ARTIFACT_SHAPE, None) != []

    def test_rejects_wrong_schema_marker(self):
        artifact = self.artifact()
        artifact["schema"] = "repro-ledger"
        assert any("schema" in p for p in check(ARTIFACT_SHAPE, artifact))

    def test_rejects_newer_version(self):
        artifact = self.artifact()
        artifact["schema_version"] = 99
        assert any("newer" in p for p in check(ARTIFACT_SHAPE, artifact))

    def test_rejects_negative_totals(self):
        artifact = self.artifact()
        artifact["planes"]["atpg"]["totals"]["decisions"] = -1
        assert check(ARTIFACT_SHAPE, artifact) != []

    def test_rejects_v1_naming_its_version(self):
        artifact = self.artifact()
        artifact["schema_version"] = 1
        assert check(ARTIFACT_SHAPE, artifact) == [
            "$.schema_version: v1 is no longer read (this checker reads v2)"
        ]

    def test_rejects_gapped_event_sequence(self):
        artifact = self.artifact()
        artifact["planes"]["optimizer"]["events"] = [{
            "cache": "none", "kind": "upgrade", "outcome": "accept",
            "seq": 3, "subject": "CPU", "tat_after": 1, "tat_before": 2,
            "version_from": 1, "version_to": 2,
        }]
        assert check(ARTIFACT_SHAPE, artifact) == [
            "$.planes.optimizer.events[0].seq: must be 0"
        ]

    def test_rejects_inconsistent_reconciliation(self):
        artifact = self.artifact()
        name = sorted(artifact["reconciliation"])[0]
        artifact["reconciliation"][name]["ok"] = False
        assert check(ARTIFACT_SHAPE, artifact) == [
            f"$.reconciliation['{name}'].ok: must be true: attrib 0, counter 0"
        ]

    @pytest.mark.parametrize("mutate, problem", [
        (lambda a: a.update(system=""), '$.system: must be a non-empty string, got ""'),
        (lambda a: a.update(seed=True), "$.seed: must be an integer, got true"),
        (lambda a: a.update(quick=1), "$.quick: must be a boolean, got 1"),
        (lambda a: a.update(top_k=0), "$.top_k: must be a positive integer, got 0"),
        (lambda a: a["planes"].pop("optimizer"), "$.planes.optimizer: missing"),
        (lambda a: a["planes"]["atpg"]["totals"].update(calls=1.5),
         "$.planes.atpg.totals.calls: must be a non-negative integer, got 1.5"),
        (lambda a: a["planes"]["atpg"]["hard_faults"].append(
            {key: value for key, value in HARD_FAULT.items() if key != "site"}),
         "$.planes.atpg.hard_faults[0].site: missing"),
        (lambda a: a["planes"]["atpg"]["hard_faults"].append(dict(
            HARD_FAULT, status="lost")),
         '$.planes.atpg.hard_faults[0].status: must be one of "detected", '
         '"aborted", "redundant", got "lost"'),
        (lambda a: a["planes"]["optimizer"].update(summary=[]),
         "$.planes.optimizer.summary: must be an object, got a list"),
        (lambda a: a["reconciliation"]["atpg.podem.calls"].update(counter=-1),
         "$.reconciliation['atpg.podem.calls'].counter: must be a non-negative "
         "integer, got -1"),
        (lambda a: a["reconciliation"]["atpg.podem.calls"].update(counter=1),
         "$.reconciliation['atpg.podem.calls'].ok: must be false: attrib 0, "
         "counter 1"),
    ])
    def test_each_rule_names_its_path(self, mutate, problem):
        artifact = self.artifact()
        mutate(artifact)
        assert check(ARTIFACT_SHAPE, artifact) == [problem]

    def test_main_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.json"
        good.write_text(artifact_json(self.artifact()))
        bad = tmp_path / "bad.json"
        broken = self.artifact()
        broken["planes"]["atpg"]["totals"]["decisions"] = -1
        bad.write_text(artifact_json(broken))
        assert main(["validate", str(good)]) == 0
        assert main(["validate", str(bad)]) == 1
        assert main(["validate", str(tmp_path / "missing.json")]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert f"ok   {good} (repro-attrib)" in out.out
        assert (f"FAIL {bad}: $.planes.atpg.totals.decisions: must be a "
                f"non-negative integer, got -1") in out.out

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

    @pytest.mark.parametrize("argv", [  # no command takes --top, in any form
        ["profile", "System1", "--top", "0"],
        ["profile", "System1", "--quick", "--top", "-3"],
        ["profile", "System1", "--quick", "--top", "many"],
        ["profile", "System1", "--top", "2.5"],
        ["profile", "System1", "--quick", "--top", "3"],
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
        ["profile", "System1", "--quick", "--baseline", "{dir}"],
        ["export", "System1", "-o", "{dir}"],
        ["profile", "System1", "--quick", "--ledger", "{dir}"],
        ["profile", "System1", "--quick", "-o", "{dir}"],
        ["certify", "System1", "-o", "{dir}"],
        pytest.param(["export", "System1", "-o", "{full}"], marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full device")),
        ["profile", "System1", "--quick", "--ledger", "{bogus}"],
        pytest.param(["profile", "System1", "--quick", "-o", "{full}"],
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="no /dev/full device")),
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
            ["profile", "System1", "--quick", "--baseline", str(missing)]
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_report_non_ledger_baseline_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("this is not a ledger\n")
        code = self.run_cli(
            ["profile", "System1", "--quick", "--baseline", str(bogus)]
        )
        assert code == 2
        assert str(bogus) in capsys.readouterr().err

    def test_profile_ledger_embeds_artifact(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        assert self.run_cli(
            ["profile", "System1", "--quick", "--ledger", str(ledger)]
        ) == 0
        record = RunLedger(ledger).latest("profile-System1-quick")
        assert record["kind"] == "profile"
        assert check(ARTIFACT_SHAPE, record["attrib"]) == []
        totals = record["attrib"]["planes"]["atpg"]["totals"]
        assert totals["calls"] == record["counters"]["atpg.podem.calls"] > 0
        # attribution reads the run's results: it keeps no counter of its own
        assert not [name for name in record["counters"] if name.startswith("attrib.")]
