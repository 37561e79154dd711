"""The parts of the lint rule table and the one function that runs it.

A :class:`Rule` couples a stable id with a *scope* -- the artifact layer
it inspects -- a severity, and a check function that yields
``(location, message, hint)`` findings from a :class:`LintContext`.
Each ``rules_*`` module exports its rules as ``RULES``, and
:data:`repro.lint.RULES` joins them; :func:`run_rules` runs that table
and turns every finding into a :class:`Diagnostic` with its rule's id
and severity.

Scopes:

* ``circuit`` -- per-core RTL structure (loops, undriven, widths);
* ``soc`` -- chip-level wiring and transparency versions;
* ``plan`` -- a finished :class:`~repro.soc.plan.SocTestPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.obs import METRICS

_RULES_RUN = METRICS.counter("lint.rules.run")
_DIAG_COUNTERS = {
    severity: METRICS.counter(f"lint.diagnostics.{severity.label}")
    for severity in Severity
}

SCOPES = ("circuit", "soc", "plan")


@dataclass
class LintContext:
    """Everything a rule may inspect; unused layers stay ``None``.

    ``circuits`` carries ``(label, circuit)`` pairs -- the label becomes
    the location prefix (a core name, or the circuit name when linting a
    bare circuit).  ``plan_error`` records why the plan could not be
    built, so ``plan.infeasible`` can report the cause instead of
    silently skipping.
    """

    system: str
    circuits: List[Tuple[str, object]] = field(default_factory=list)
    soc: Optional[object] = None
    plan: Optional[object] = None
    plan_error: Optional[Exception] = None
    #: each circuit's problems, scanned once per pass by the circuit
    #: rules (:mod:`repro.lint.rules_netlist`)
    circuit_problems: Optional[List[Tuple[str, List[object]]]] = field(
        default=None, init=False
    )
    #: the transparency certificate, built once per pass by the
    #: certifier-backed rules (:mod:`repro.lint.rules_analysis`), and its
    #: findings by rule id, walked once per state of the certificate
    certificate: Optional[object] = None
    certificate_findings: Optional[Dict[str, List[Finding]]] = field(
        default=None, init=False
    )


#: one violation a check found: its location, message and fix hint
Finding = Tuple[str, str, Optional[str]]


@dataclass(frozen=True)
class Rule:
    """One design rule: every finding of ``check`` is reported under
    ``rule_id`` at ``severity``."""

    rule_id: str
    scope: str
    severity: Severity
    title: str
    check: Callable[[LintContext], Iterable[Finding]]


def run_rules(
    context: LintContext, scopes: Iterable[str], report: Optional[LintReport] = None
) -> LintReport:
    """Run every rule of :data:`repro.lint.RULES` whose scope is in
    ``scopes``, in table order, into ``report`` (a new one by default)."""
    from repro.lint import RULES

    if report is None:
        report = LintReport(target=context.system)
    for rule in RULES:
        if rule.scope not in scopes:
            continue
        _RULES_RUN.inc()
        report.rules_run += 1
        for where, message, hint in rule.check(context):
            _DIAG_COUNTERS[rule.severity].inc()
            report.diagnostics.append(
                Diagnostic(rule.rule_id, rule.severity, where, message, hint)
            )
    return report
