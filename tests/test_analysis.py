"""Tests for the symbolic transparency certifier (repro.analysis)."""

import dataclasses
import json

import pytest

from tests.fixtures import broken_designs as bd
from repro.analysis import (
    certify_soc,
    check_path_selects,
    fresh_known_arcs,
    prove_path,
)
from repro.analysis.schema import validate_certificate
from repro.cli import main
from repro.lint import Severity

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
        soc = bd.narrowed_transparency_soc()
        core = soc.cores["A"]
        version = core.versions[0]
        known = fresh_known_arcs(core.circuit, version, core.hscan)
        path = version.propagate_paths["INHI"]
        proof = prove_path(core.circuit, path, known_arcs=known)
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
        assert validate_certificate(payload) == []


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
        assert any(
            d.rule == rule and d.severity is Severity.ERROR
            for d in certificate.diagnostics()
        )

    def test_refuted_certificate_json_still_validates(self):
        payload = json.loads(certify_soc(bd.narrowed_transparency_soc()).to_json())
        assert validate_certificate(payload) == []
        assert payload["certified"] is False
        assert payload["summary"]["refuted"] > 0

    def test_escalation_only_hits_selected_versions(self):
        certificate = certify_soc(bd.mux_conflict_soc())
        escalated = certificate.diagnostics(escalate=True)
        errors = [d for d in escalated if d.severity is Severity.ERROR]
        assert errors  # version 0 is the selected default
        relaxed = certificate.diagnostics()
        assert all(d.severity < Severity.ERROR for d in relaxed)


# ----------------------------------------------------------------------
# tamper detection: the certifier must not trust version metadata
# ----------------------------------------------------------------------
class TestFreshArcs:
    def test_fresh_arcs_match_declared_on_honest_core(self):
        core = bd.shared_select_soc().cores["A"]
        for version in core.versions:
            fresh = set(fresh_known_arcs(core.circuit, version, core.hscan))
            declared = {arc.key() for arc in version.rcg.arcs}
            assert declared <= fresh


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
        assert validate_certificate(payload) == []
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
        assert validate_certificate(payload) == []

    def test_replay_embeds_results(self, capsys):
        assert main(["certify", "System2", "--json", "--replay"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replays"]
        assert all(entry["ok"] for entry in payload["replays"])


# ----------------------------------------------------------------------
# schema validator rejects malformed artifacts
# ----------------------------------------------------------------------
class TestSchemaValidator:
    def good(self):
        return json.loads(certify_soc(bd.shared_select_soc()).to_json())

    def test_missing_key_reported(self):
        payload = self.good()
        del payload["summary"]
        assert validate_certificate(payload)

    def test_wrong_kind_reported(self):
        payload = self.good()
        payload["kind"] = "something-else"
        assert any("kind" in problem for problem in validate_certificate(payload))

    def test_inconsistent_status_reported(self):
        payload = self.good()
        victim = payload["versions"][0]["paths"][0]
        victim["status"] = "refuted"
        victim["problems"] = []
        assert validate_certificate(payload)

    def test_proved_version_with_missing_paths_reported(self):
        payload = self.good()
        version = payload["versions"][0]
        assert version["proved"] is True and version["missing"] == []
        version["missing"] = [{"direction": "propagate", "port": "AIN"}]
        assert any("missing" in problem for problem in validate_certificate(payload))

    def test_summary_cross_check(self):
        payload = self.good()
        payload["summary"]["paths"] += 1
        assert any("summary" in problem for problem in validate_certificate(payload))
