"""Lint entry points: build a context and run the registry over it.

``lint_soc`` is the full four-layer pass the CLI runs: core RTL
structure, chip wiring + transparency versions, then -- only when those
layers are error-free -- a default test plan and its concurrent
schedule.  The layer staging matters: planning a malformed SOC raises,
so the plan/schedule layers run on demand and a construction failure
becomes a ``plan.infeasible``/``sched.infeasible`` diagnostic instead
of a crash.  One context carries the pass, so the transparency
certificate its soc layer builds is reused by the plan layer.

Callers that want a precondition check call these entry points (or
:func:`repro.analysis.certify_soc`) and act on the report's errors.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.lint.diagnostics import LintReport
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
) -> LintReport:
    """The full static pass over every artifact layer of one SOC.

    When the structural layers report errors the plan and schedule
    layers are skipped: building a plan on a broken SOC would raise
    rather than lint.
    """
    registry = registry or default_registry()
    with profile_section("lint.pass"):
        context = _context_for_soc(soc)
        report = registry.run(context, scopes=("circuit", "soc"))
        if report.errors:
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

