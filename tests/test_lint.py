"""Tests for the static design-rule checker (repro.lint)."""

import json

import pytest

from tests.fixtures import broken_designs as bd
from repro.cli import main
from repro.lint import (
    DEFAULT_REGISTRY,
    Diagnostic,
    LintContext,
    Rule,
    Severity,
    lint_circuit,
    lint_plan,
    lint_schedule,
    lint_soc,
)

SYSTEMS = ["System1", "System2", "System3", "System4"]


def fired(report):
    return {d.rule for d in report.diagnostics}


# ----------------------------------------------------------------------
# the registered example systems are clean
# ----------------------------------------------------------------------
class TestSystemsClean:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_system_has_no_errors(self, system):
        from repro.designs import system_builders

        report = lint_soc(system_builders()[system]())
        assert report.errors == []
        assert report.warnings == []
        assert report.rules_run == len(DEFAULT_REGISTRY)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_cli_lint_exits_zero(self, system, capsys):
        assert main(["lint", system]) == 0
        assert f"{system}:" in capsys.readouterr().out

    def test_lint_certifies_each_version_once(self):
        from repro.designs import build_system1
        from repro.obs import METRICS

        def proofs():
            counters = METRICS.counters()
            return (counters.get("analysis.paths.proved", 0)
                    + counters.get("analysis.paths.refuted", 0))

        soc = build_system1()
        declared = sum(
            len(version.justify_paths) + len(version.propagate_paths)
            for core in soc.testable_cores() for version in core.versions
        )
        before = proofs()
        lint_soc(soc)
        assert proofs() - before == declared


# ----------------------------------------------------------------------
# every rule fires on its broken fixture
# ----------------------------------------------------------------------
class TestRulesFire:
    @pytest.mark.parametrize("fixture, rule", [
        (bd.comb_loop_circuit, "rtl.comb-loop"),
        (bd.undriven_circuit, "rtl.undriven"),
        (bd.width_mismatch_circuit, "rtl.width-mismatch"),
        (bd.unreachable_register_circuit, "rtl.unreachable-reg"),
    ])
    def test_circuit_rules(self, fixture, rule):
        report = lint_circuit(fixture())
        assert rule in fired(report)

    @pytest.mark.parametrize("fixture, rule", [
        (bd.partially_driven_soc, "soc.input-drivers"),
        (bd.doubly_driven_soc, "soc.input-drivers"),
        (bd.uncovered_input_soc, "trans.input-propagation"),
        (bd.unjustified_output_soc, "trans.output-justification"),
    ])
    def test_soc_rules(self, fixture, rule):
        report = lint_soc(fixture())
        assert rule in fired(report)
        assert report.errors  # these soc-scope fixtures break ERROR rules

    @pytest.mark.parametrize("fixture, rule", [
        (bd.lying_latency_soc, "trans.latency-overrun"),
        (bd.lying_latency_soc, "analysis.slice-provenance"),
        (bd.narrowed_transparency_soc, "analysis.slice-provenance"),
        (bd.mux_conflict_soc, "analysis.mux-conflict"),
    ])
    def test_soc_warning_rules(self, fixture, rule):
        """Proof rules land at WARNING; trans.latency-overrun demoted with them."""
        report = lint_soc(fixture())
        assert rule in fired(report)
        assert rule in {d.rule for d in report.warnings}
        assert report.errors == []

    def test_shared_select_is_advisory_only(self):
        """Different muxes on one select net: realizable, so INFO not refuted."""
        report = lint_soc(bd.shared_select_soc())
        notes = [d for d in report.diagnostics if d.rule == "analysis.select-sharing"]
        assert notes and all(d.severity is Severity.INFO for d in notes)
        assert report.errors == [] and report.warnings == []

    def test_narrowed_diagnostics_name_slices(self):
        """Refutations carry the offending slice ranges, not just port names."""
        report = lint_soc(bd.narrowed_transparency_soc())
        messages = [d.message for d in report.diagnostics
                    if d.rule == "analysis.slice-provenance"]
        assert messages
        assert any("INHI[3:0]" in m and "R0[7:4]" in m for m in messages)

    @pytest.mark.parametrize("fixture, rule", [
        (bd.tampered_cadence_plan, "plan.reservation-overlap"),
        (bd.mux_unrecorded_plan, "plan.mux-unrecorded"),
        (bd.tat_inconsistent_plan, "plan.tat-consistency"),
        (bd.bad_selection_plan, "plan.selection-range"),
    ])
    def test_plan_rules(self, fixture, rule):
        report = lint_plan(fixture())
        assert rule in fired(report)

    @pytest.mark.parametrize("fixture, rule", [
        (bd.double_booked_schedule, "sched.resource-conflict"),
        (bd.over_budget_schedule, "sched.power-budget"),
    ])
    def test_schedule_rules(self, fixture, rule):
        report = lint_schedule(fixture())
        assert rule in fired(report)

    def test_infeasible_rules(self):
        """plan/sched.infeasible translate construction failures."""
        context = LintContext(system="X", plan_error=RuntimeError("no route"))
        report = DEFAULT_REGISTRY.run(context, scopes=("plan",))
        assert "plan.infeasible" in fired(report)
        context = LintContext(system="X", schedule_error=RuntimeError("stuck"))
        report = DEFAULT_REGISTRY.run(context, scopes=("schedule",))
        assert "sched.infeasible" in fired(report)

    def test_mux_usage_advisory_fires_on_system1(self):
        from repro.designs import build_system1

        report = lint_soc(build_system1())
        notes = [d for d in report.diagnostics if d.rule == "plan.mux-usage"]
        assert notes and all(d.severity is Severity.INFO for d in notes)

    def test_broken_circuit_reports_all_problems(self):
        """The lint collects every problem, not just the first."""
        report = lint_circuit(bd.undriven_circuit())
        assert len(report.diagnostics) >= 2  # undriven + unreachable


# ----------------------------------------------------------------------
# registry knobs
# ----------------------------------------------------------------------
class TestRegistry:
    def test_disable_suppresses_rule(self):
        registry = DEFAULT_REGISTRY.clone()
        registry.disable("rtl.comb-loop")
        report = lint_circuit(bd.comb_loop_circuit(), registry=registry)
        assert "rtl.comb-loop" not in fired(report)

    def test_clone_is_independent(self):
        registry = DEFAULT_REGISTRY.clone()
        registry.disable("rtl.comb-loop")
        assert DEFAULT_REGISTRY.is_enabled("rtl.comb-loop")

    def test_rule_ids_are_stable(self):
        """The documented rule set: ids are API, renames are breaking."""
        assert {rule.rule_id for rule in DEFAULT_REGISTRY.rules()} == {
            "rtl.comb-loop", "rtl.undriven", "rtl.width-mismatch",
            "rtl.unreachable-reg", "soc.input-drivers",
            "trans.input-propagation", "trans.output-justification",
            "trans.latency-overrun", "plan.infeasible",
            "plan.reservation-overlap", "plan.mux-unrecorded",
            "plan.tat-consistency", "plan.selection-range", "plan.mux-usage",
            "sched.infeasible", "sched.resource-conflict", "sched.power-budget",
            "analysis.slice-provenance", "analysis.mux-conflict",
            "analysis.select-sharing", "analysis.access-route",
        }


# ----------------------------------------------------------------------
# CLI: JSON output and exit codes
# ----------------------------------------------------------------------
class TestCliLint:
    def test_json_round_trips(self, capsys):
        assert main(["lint", "System1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["target"] == "System1"
        assert payload["clean"] is True
        assert set(payload["summary"]) == {"error", "warning", "info"}
        for entry in payload["diagnostics"]:
            assert set(entry) == {"rule", "severity", "location", "message", "hint"}

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "rtl.comb-loop" in out and "sched.power-budget" in out

    def test_unknown_system_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "Nope"])
        assert excinfo.value.code == 2
        assert "unknown system" in capsys.readouterr().err

    def test_missing_system_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2

    def test_unknown_rule_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "System1", "--disable", "no.such.rule"])
        assert excinfo.value.code == 2

    def test_bad_fail_on_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "System1", "--fail-on", "fatal"])
        assert excinfo.value.code == 2

    def test_fail_on_info_exits_1(self):
        # System1 uses test-mux fallbacks, so info advisories exist
        assert main(["lint", "System1", "--fail-on", "info"]) == 1

    def test_disable_flag_reaches_registry(self, capsys):
        assert main(["lint", "System1", "--fail-on", "info",
                     "--disable", "plan.mux-usage",
                     "--disable", "analysis.select-sharing"]) == 0


# ----------------------------------------------------------------------
# diagnostics plumbing
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_severity_ordering_and_parse(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.parse("warning") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_report_sorts_errors_first(self):
        report = lint_circuit(bd.undriven_circuit())
        sorted_rules = [d.severity for d in report.sorted()]
        assert sorted_rules == sorted(sorted_rules, reverse=True)

    def test_certifier_diagnostics_share_one_location(self):
        """Lint and certify name a path alike: system, core, one-based version, port."""
        from repro.analysis import certify_soc

        report = lint_soc(bd.lying_latency_soc())
        rules = {"trans.latency-overrun", "analysis.slice-provenance"}
        linted = [d for d in report.diagnostics if d.rule in rules]
        certified = [d for d in certify_soc(bd.lying_latency_soc()).diagnostics()
                     if d.rule in rules]
        assert {d.rule for d in linted} == {d.rule for d in certified} == rules
        assert {d.location for d in linted + certified} == {
            "lyinglatency/core:A/version:1/port:IN"
        }

    def test_diagnostic_str_mentions_location(self):
        d = Diagnostic(rule="x.y", severity=Severity.ERROR,
                       location="Sys/core:A", message="boom", hint="fix it")
        assert "Sys/core:A" in str(d) and "boom" in str(d)

    def test_counters_incremented(self):
        from repro.obs import METRICS

        before = METRICS.counters().get("lint.rules.run", 0)
        lint_circuit(bd.comb_loop_circuit())
        after = METRICS.counters().get("lint.rules.run", 0)
        assert after > before

    def test_temporary_rule_registration(self):
        """The registry accepts out-of-tree rules."""
        def always(ctx):
            yield Diagnostic(rule="test.always", severity=Severity.INFO,
                             location=ctx.system, message="hello", hint="")

        registry = DEFAULT_REGISTRY.clone()
        registry.register(Rule("test.always", "circuit", Severity.INFO,
                               "always fires", always))
        report = lint_circuit(bd.unreachable_register_circuit(), registry=registry)
        assert "test.always" in fired(report)
