"""Lint entry points: build a context, run the registry, gate flows.

``lint_soc`` is the full four-layer pass the CLI runs: core RTL
structure, chip wiring + transparency versions, then -- only when those
layers are error-free -- a default test plan and its concurrent
schedule.  The layer staging matters: planning a malformed SOC raises,
so the plan/schedule layers run on demand and a construction failure
becomes a ``plan.infeasible``/``sched.infeasible`` diagnostic instead
of a crash.

``strict_gate_*`` back the opt-in ``strict=True`` preconditions on
:func:`repro.soc.plan.plan_soc_test`, :func:`repro.flow.run_socet`, and
:func:`repro.schedule.schedule_plan`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LintError, ReproError
from repro.lint.diagnostics import LintReport, Severity
from repro.lint.registry import LintContext, RuleRegistry
from repro.obs import profile_section


def default_registry() -> RuleRegistry:
    """The process-wide registry with every built-in rule registered."""
    from repro.lint import DEFAULT_REGISTRY

    return DEFAULT_REGISTRY


def _context_for_soc(soc, system: Optional[str] = None) -> LintContext:
    return LintContext(
        system=system or soc.name,
        circuits=[(core.name, core.circuit) for core in soc.testable_cores()],
        soc=soc,
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def lint_circuit(circuit, registry: Optional[RuleRegistry] = None) -> LintReport:
    """Run the circuit-scope rules on one bare RTL circuit."""
    registry = registry or default_registry()
    context = LintContext(system=circuit.name, circuits=[(circuit.name, circuit)])
    return registry.run(context, scopes=("circuit",))


def lint_plan(plan, registry: Optional[RuleRegistry] = None) -> LintReport:
    """Run the plan-scope rules on a finished SOC test plan."""
    registry = registry or default_registry()
    context = LintContext(system=plan.soc.name, soc=plan.soc, plan=plan)
    return registry.run(context, scopes=("plan",))


def lint_schedule(schedule, registry: Optional[RuleRegistry] = None) -> LintReport:
    """Run the schedule-scope rules on a concurrent test schedule."""
    registry = registry or default_registry()
    context = LintContext(system=schedule.soc_name, schedule=schedule)
    return registry.run(context, scopes=("schedule",))


def lint_soc(
    soc,
    registry: Optional[RuleRegistry] = None,
    selection=None,
    deep: bool = True,
) -> LintReport:
    """The full static pass over every artifact layer of one SOC.

    ``deep=False`` stops after the structural layers (no plan/schedule
    construction -- cheap enough for a pre-planning gate).  When the
    structural layers report errors the deep layers are skipped anyway:
    building a plan on a broken SOC would raise rather than lint.
    """
    registry = registry or default_registry()
    with profile_section("lint.pass"):
        context = _context_for_soc(soc)
        report = registry.run(context, scopes=("circuit", "soc"))
        if not deep or report.errors:
            return report

        from repro.soc.plan import plan_soc_test

        try:
            context.plan = plan_soc_test(soc, selection)
        except ReproError as error:
            context.plan_error = error
        registry.run(context, scopes=("plan",), report=report)
        if context.plan is not None and not report.errors:
            try:
                context.schedule = context.plan.schedule()
            except ReproError as error:
                context.schedule_error = error
            registry.run(context, scopes=("schedule",), report=report)
        return report


# ----------------------------------------------------------------------
# strict precondition gates
# ----------------------------------------------------------------------
def _raise_on_errors(report: LintReport, gate: str) -> None:
    if report.errors:
        raise LintError(
            f"{gate}: {len(report.errors)} design-rule error(s) in "
            f"{report.target}; first: {report.errors[0]}",
            diagnostics=report.errors,
        )


def strict_gate_soc(soc, gate: str = "plan_soc_test(strict=True)") -> None:
    """Reject a structurally broken SOC before any planning/ATPG runs."""
    report = lint_soc(soc, deep=False)
    _raise_on_errors(report, gate)


def strict_gate_plan(plan, gate: str = "schedule_plan(strict=True)") -> None:
    """Reject an inconsistent plan before scheduling consumes it."""
    report = lint_plan(plan)
    _raise_on_errors(report, gate)
