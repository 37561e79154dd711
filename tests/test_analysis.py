"""Tests for the symbolic transparency certifier (repro.analysis)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.fixtures import broken_designs as bd
from repro import cli
from repro.analysis import (
    certify_soc,
    check_path_selects,
    prove_path,
)
from repro.analysis.certify import CERTIFICATE_SHAPE
from repro.cli import main
from repro.lint import RULES, Severity
from repro.util.schema import check

SYSTEMS = ["System1", "System2", "System3", "System4"]


def build(system):
    from repro.designs import system_builders

    return system_builders()[system]()


def refuted_paths(certificate):
    return [p for p in certificate.iter_paths() if not p.proved]


# ----------------------------------------------------------------------
# slice-provenance prover
# ----------------------------------------------------------------------
class TestProvenance:
    def one_core(self, soc_builder=bd.shared_select_soc, name="A"):
        return soc_builder().cores[name]

    def test_honest_path_proves_full_width(self):
        core = self.one_core()
        version = core.versions[0]
        key = sorted(version.justify_paths)[0]
        path = version.justify_paths[key]
        proof = prove_path(core.circuit, path)
        assert proof.proved
        assert proof.proved_width == proof.root.width
        assert proof.reasons == []
        assert sum(s.width for s in proof.segments) == proof.root.width

    def test_derived_latency_matches_declaration(self):
        core = self.one_core()
        version = core.versions[0]
        for path in version.propagate_paths.values():
            proof = prove_path(core.circuit, path)
            assert proof.derived_latency == path.latency

    def test_lying_latency_is_refuted(self):
        soc = bd.lying_latency_soc()
        core = soc.cores["A"]
        path = core.versions[0].propagate_paths["IN"]
        proof = prove_path(core.circuit, path)
        assert not proof.proved
        assert any("latency" in reason for reason in proof.reasons)

    def test_unknown_arc_is_refuted_with_slices(self):
        certificate = certify_soc(bd.narrowed_transparency_soc())
        proof = next(
            record.proof for record in certificate.iter_paths()
            if record.version_index == 0 and record.key == ("INHI",)
        )
        assert not proof.proved
        assert any("INHI[3:0]" in r and "R0[7:4]" in r for r in proof.reasons)

    def test_segments_are_sorted_and_stable(self):
        core = self.one_core(bd.narrowed_transparency_soc)
        version = core.versions[0]
        key = sorted(version.justify_paths)[0]
        proof = prove_path(core.circuit, version.justify_paths[key])
        ordering = [(s.root_lo, s.width, s.terminal) for s in proof.segments]
        assert ordering == sorted(ordering)


# ----------------------------------------------------------------------
# mux-select consistency solver
# ----------------------------------------------------------------------
class TestMuxSat:
    def test_conflicting_path_is_refuted(self):
        core = bd.mux_conflict_soc().cores["A"]
        version = core.versions[0]
        key = sorted(version.justify_paths)[0]
        solver = check_path_selects(core.circuit, version.justify_paths[key])
        assert not solver.consistent
        assert solver.conflicts
        described = solver.conflicts[0].describe()
        assert "MX" in described and "0" in described and "1" in described

    def test_shared_select_is_advisory_not_conflict(self):
        core = bd.shared_select_soc().cores["A"]
        version = core.versions[0]
        key = sorted(version.justify_paths)[0]
        solver = check_path_selects(core.circuit, version.justify_paths[key])
        assert solver.consistent
        assert solver.advisories
        assert "SEL" in solver.advisories[0]


# ----------------------------------------------------------------------
# certificates over the example systems
# ----------------------------------------------------------------------
class TestSystemsCertify:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_version_certifies(self, system):
        certificate = certify_soc(build(system))
        assert certificate.certified
        summary = certificate.summary()
        assert summary["refuted"] == 0
        assert summary["routes_refuted"] == 0
        assert summary["paths"] > 0 and summary["routes"] > 0
        assert certificate.plan_error is None

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_json_is_byte_stable(self, system):
        first = certify_soc(build(system)).to_json()
        second = certify_soc(build(system)).to_json()
        assert first == second

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_json_passes_schema_validation(self, system):
        payload = json.loads(certify_soc(build(system)).to_json())
        assert check(CERTIFICATE_SHAPE, payload) == []


# ----------------------------------------------------------------------
# refutations on the broken fixtures
# ----------------------------------------------------------------------
class TestRefutations:
    def test_narrowed_core_is_refuted(self):
        certificate = certify_soc(bd.narrowed_transparency_soc())
        assert not certificate.certified
        bad = refuted_paths(certificate)
        assert bad
        # the diagnostics carry the exact offending slice ranges
        assert any(
            "INHI[3:0]" in problem and "R0[7:4]" in problem
            for proof in bad for problem in proof.problems()
        )

    def test_mux_conflict_is_refuted(self):
        certificate = certify_soc(bd.mux_conflict_soc())
        bad = refuted_paths(certificate)
        assert bad
        assert any(proof.solver.conflicts for proof in bad)
        # version 2 retries with bypass muxes; selecting it dodges the conflict
        proved = next(v.index for v in certificate.versions if v.proved)
        assert certify_soc(bd.mux_conflict_soc(), selection={"A": proved}).certified

    @pytest.mark.parametrize("fixture, rule", [
        (bd.uncovered_input_soc, "trans.input-propagation"),
        (bd.unjustified_output_soc, "trans.output-justification"),
    ])
    def test_coverage_gap_is_not_certified(self, fixture, rule):
        certificate = certify_soc(fixture())
        assert not certificate.certified
        assert certificate.versions[0].missing
        assert rule in {found.rule for found in certificate.findings()}
        assert next(r.severity for r in RULES if r.rule_id == rule) is Severity.ERROR

    def test_refuted_certificate_json_still_validates(self):
        payload = json.loads(certify_soc(bd.narrowed_transparency_soc()).to_json())
        assert check(CERTIFICATE_SHAPE, payload) == []
        assert payload["certified"] is False
        assert payload["summary"]["refuted"] > 0

    def test_escalation_only_hits_selected_versions(self, monkeypatch, capsys):
        certificate = certify_soc(bd.mux_conflict_soc())
        found = list(certificate.findings())
        severity = {rule.rule_id: rule.severity for rule in RULES}
        assert all(severity[f.rule] < Severity.ERROR for f in found)
        escalated = [f for f in found if f.refutes_selection]
        assert escalated  # version 0 is the selected default
        assert all("/version:1/" in f.location for f in escalated)
        # repro certify escalates the selected version's refutation only
        monkeypatch.setattr(cli, "_build_system", lambda name: bd.mux_conflict_soc())
        assert main(["certify", "muxconflict"]) == 1
        assert "error[analysis.mux-conflict]" in capsys.readouterr().out
        assert main(["certify", "muxconflict", "-s", "A=2"]) == 0
        out = capsys.readouterr().out
        assert "warning[analysis.mux-conflict]" in out and "error[" not in out


# ----------------------------------------------------------------------
# tamper detection: the certifier must not trust version metadata
# ----------------------------------------------------------------------
class TestFreshArcs:
    def test_fresh_arcs_match_declared_on_honest_core(self):
        """The arcs extracted from an honest core admit every arc its
        versions' paths declare: nothing is refuted as a phantom."""
        certificate = certify_soc(bd.shared_select_soc())
        paths = certificate.iter_paths()
        assert paths and all(path.proved for path in paths)
        assert all(path.proof.segments for path in paths)


# ----------------------------------------------------------------------
# CLI: repro certify
# ----------------------------------------------------------------------
class TestCliCertify:
    def test_clean_system_exits_zero(self, capsys):
        assert main(["certify", "System1"]) == 0
        out = capsys.readouterr().out
        assert "System1" in out

    def test_json_output_validates(self, capsys):
        assert main(["certify", "System2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert check(CERTIFICATE_SHAPE, payload) == []
        assert payload["system"] == "System2"

    def test_fail_on_info_sees_advisories(self):
        # System1's CPU paths drive shared select nets: INFO advisories
        assert main(["certify", "System1", "--fail-on", "info"]) == 1

    def test_unknown_system_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "Nope"])
        assert excinfo.value.code == 2

    def test_bad_fail_on_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "System1", "--fail-on", "fatal"])
        assert excinfo.value.code == 2

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "cert.json"
        assert main(["certify", "System2", "--json", "-o", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert check(CERTIFICATE_SHAPE, payload) == []

    def test_replay_embeds_results(self, tmp_path, capsys):
        target = tmp_path / "cert.json"
        assert main(["certify", "System2", "--json", "--replay", "-o", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["replays"]
        assert all(entry["ok"] for entry in payload["replays"])
        # repro validate accepts a certificate that embeds its replays
        assert main(["validate", str(target)]) == 0
        assert capsys.readouterr().out.startswith(f"ok   {target}")

    def test_replay_reports_no_refuted_path(self, monkeypatch, capsys):
        """A path the certificate refutes is not replayed, so it cannot be
        reported as a certifier bug; the refutation stays the error."""
        monkeypatch.setattr(cli, "_build_system", lambda name: bd.mux_conflict_soc())
        assert main(["certify", "muxconflict", "--replay"]) == 1
        out = capsys.readouterr().out
        assert "gate-level replay: 7 proved paths, 0 mismatched" in out
        assert "analysis.replay" not in out
        assert "error[analysis.mux-conflict]" in out


# ----------------------------------------------------------------------
# the certificate's shape rejects malformed artifacts
# ----------------------------------------------------------------------
class TestSchemaValidator:
    def good(self):
        return json.loads(certify_soc(bd.shared_select_soc()).to_json())

    def test_missing_key_reported(self):
        payload = self.good()
        del payload["summary"]
        assert check(CERTIFICATE_SHAPE, payload) == ["$.summary: missing"]

    def test_wrong_kind_reported(self):
        payload = self.good()
        payload["kind"] = "something-else"
        assert check(CERTIFICATE_SHAPE, payload) == [
            '$.kind: must be "repro-certificate", got "something-else"'
        ]

    def test_inconsistent_status_reported(self):
        payload = self.good()
        victim = payload["versions"][0]["paths"][0]
        victim["status"] = "refuted"
        victim["problems"] = []
        assert check(CERTIFICATE_SHAPE, payload) == [
            "$.versions[0].paths[0].problems: must not be empty on a refuted path"
        ]

    def test_proved_version_with_missing_paths_reported(self):
        payload = self.good()
        version = payload["versions"][0]
        assert version["proved"] is True and version["missing"] == []
        version["missing"] = [{"direction": "propagate", "port": "AIN"}]
        assert check(CERTIFICATE_SHAPE, payload) == [
            "$.versions[0].missing: must be empty on a proved version"
        ]

    def test_summary_cross_check(self):
        payload = self.good()
        payload["summary"]["paths"] += 1
        assert check(CERTIFICATE_SHAPE, payload) == [
            "$.summary.paths: must be 8, the number of paths listed"
        ]

    @pytest.mark.parametrize("mutate, problem", [
        (lambda c: c.update(schema=1), "$.schema: must be 2, got 1"),
        (lambda c: c["summary"].update(routes="4"),
         '$.summary.routes: must be an integer, got "4"'),
        # a bool is not a count, though Python's int says it is
        (lambda c: c["summary"].update(versions=True),
         "$.summary.versions: must be an integer, got true"),
        (lambda c: c["versions"][1].pop("name"), "$.versions[1].name: missing"),
        (lambda c: c["versions"][0]["paths"][2].pop("proof"),
         "$.versions[0].paths[2].proof: missing"),
        (lambda c: c["routes"][3].pop("latency"), "$.routes[3].latency: missing"),
        (lambda c: c["versions"][0]["paths"][0].update(status="maybe"),
         '$.versions[0].paths[0].status: must be one of "proved", "refuted", '
         'got "maybe"'),
        (lambda c: c["versions"][0]["paths"][1].update(problems=["a gap"]),
         "$.versions[0].paths[1].problems: must be empty on a proved path"),
        (lambda c: c["routes"][0].update(status="lost"),
         '$.routes[0].status: must be one of "pin", "certified", "refuted", '
         'got "lost"'),
        (lambda c: c["summary"].update(proved=7),
         "$.summary.proved: must be 8, the number of proved paths"),
        (lambda c: c["summary"].update(routes_refuted=1),
         "$.summary.routes_refuted: must be 0, the number of refuted routes"),
        (lambda c: c.update(versions={}), "$.versions: must be a list, got an object"),
        (lambda c: c["routes"].__setitem__(0, None),
         "$.routes[0]: must be an object, got null"),
        (lambda c: c["versions"][0]["paths"].__setitem__(0, "x"),
         '$.versions[0].paths[0]: must be an object, got "x"'),
    ])
    def test_each_rule_names_its_path(self, mutate, problem):
        payload = self.good()
        mutate(payload)
        assert check(CERTIFICATE_SHAPE, payload) == [problem]


# ----------------------------------------------------------------------
# repro validate on malformed certificates: a FAIL line, never a traceback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mutate, problem", [
    (lambda c: c["routes"].__setitem__(0, None),
     "$.routes[0]: must be an object, got null"),
    (lambda c: c["versions"][0]["paths"].__setitem__(0, "x"),
     '$.versions[0].paths[0]: must be an object, got "x"'),
])
def test_validate_names_the_malformed_path(tmp_path, mutate, problem):
    payload = json.loads(certify_soc(build("System1")).to_json())
    mutate(payload)
    target = tmp_path / "cert.json"
    target.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "validate", str(target)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src")),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"FAIL {target}: {problem}"]
