"""The lint entry point: build a context and run the rule table over it.

``lint_soc`` is the full three-layer pass the CLI runs: core RTL
structure, chip wiring + transparency versions, then -- only when those
layers are error-free -- a default test plan.  The layer staging
matters: planning a malformed SOC raises, so the plan layer runs on
demand and a construction failure becomes a ``plan.infeasible``
diagnostic instead of a crash.  One context carries the pass, so the
transparency certificate its soc layer builds is reused by the plan
layer.  No schedule is built: :meth:`repro.schedule.TestSchedule.validate`
checks every schedule where the scheduler builds it.

Callers that want a precondition check call it (or
:func:`repro.analysis.certify_soc`) and act on the report's errors; a
narrower check runs one layer's rules over a :class:`LintContext` of its
own (``run_rules(context, scopes=("plan",))``).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.lint.diagnostics import LintReport
from repro.lint.registry import LintContext, run_rules
from repro.obs import profile_section


def lint_soc(soc) -> LintReport:
    """The full static pass over every artifact layer of one SOC.

    The plan layer checks the default plan (every core at its first
    version), the one artifact the pass constructs.  When the
    structural layers report errors it is skipped: building a plan on a
    broken SOC would raise rather than lint.
    """
    with profile_section("lint.pass"):
        context = LintContext(
            system=soc.name,
            circuits=[(core.name, core.circuit) for core in soc.testable_cores()],
            soc=soc,
        )
        report = run_rules(context, scopes=("circuit", "soc"))
        if report.errors:
            return report

        from repro.soc.plan import plan_soc_test

        try:
            context.plan = plan_soc_test(soc)
        except ReproError as error:
            context.plan_error = error
        return run_rules(context, scopes=("plan",), report=report)
