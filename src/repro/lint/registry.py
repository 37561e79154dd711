"""The lint rule registry: declaration, configuration, execution.

A :class:`Rule` couples a stable id with a *scope* -- the artifact layer
it inspects -- and a check function that yields
:class:`~repro.lint.diagnostics.Diagnostic` objects from a
:class:`LintContext`.  The registry owns which rules are switched off:
``repro lint --disable`` clones the default registry and disables the
named rules without touching the rules themselves.

Scopes:

* ``circuit`` -- per-core RTL structure (loops, undriven, widths);
* ``soc`` -- chip-level wiring and transparency versions;
* ``plan`` -- a finished :class:`~repro.soc.plan.SocTestPlan`;
* ``schedule`` -- a concurrent :class:`~repro.schedule.TestSchedule`.
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

SCOPES = ("circuit", "soc", "plan", "schedule")


@dataclass
class LintContext:
    """Everything a rule may inspect; unused layers stay ``None``.

    ``circuits`` carries ``(label, circuit)`` pairs -- the label becomes
    the location prefix (a core name, or the circuit name when linting a
    bare circuit).  ``plan_error``/``schedule_error`` record why a layer
    could not be built, so the corresponding rules can report the cause
    instead of silently skipping.
    """

    system: str
    circuits: List[Tuple[str, object]] = field(default_factory=list)
    soc: Optional[object] = None
    plan: Optional[object] = None
    schedule: Optional[object] = None
    plan_error: Optional[Exception] = None
    schedule_error: Optional[Exception] = None
    #: the transparency certificate, built once per pass by the
    #: certifier-backed rules (:mod:`repro.lint.rules_analysis`)
    certificate: Optional[object] = None


CheckFn = Callable[[LintContext], Iterable[Diagnostic]]


@dataclass
class Rule:
    """One registered design rule."""

    rule_id: str
    scope: str
    severity: Severity
    title: str
    check: CheckFn


class RuleRegistry:
    """Ordered rule collection; a clone can switch rules off."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}
        self._disabled: set = set()

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def register(self, rule: Rule) -> Rule:
        if rule.scope not in SCOPES:
            raise ValueError(f"rule {rule.rule_id!r} has unknown scope {rule.scope!r}")
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        return rule

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def disable(self, rule_id: str) -> None:
        if rule_id not in self._rules:
            raise ValueError(f"unknown lint rule {rule_id!r}")
        self._disabled.add(rule_id)

    def is_enabled(self, rule_id: str) -> bool:
        return rule_id in self._rules and rule_id not in self._disabled

    def clone(self) -> "RuleRegistry":
        """An independent copy for one-off configuration (CLI flags)."""
        twin = RuleRegistry()
        twin._rules = dict(self._rules)
        twin._disabled = set(self._disabled)
        return twin

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rules(self, scope: Optional[str] = None) -> List[Rule]:
        ordered = list(self._rules.values())
        if scope is not None:
            ordered = [r for r in ordered if r.scope == scope]
        return ordered

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        context: LintContext,
        scopes: Optional[Iterable[str]] = None,
        report: Optional[LintReport] = None,
    ) -> LintReport:
        """Run every enabled rule whose scope is in ``scopes``.

        Diagnostics carry their rule's severity, whatever severity the
        check function emitted.
        """
        wanted = set(scopes) if scopes is not None else set(SCOPES)
        if report is None:
            report = LintReport(target=context.system)
        for rule in self.rules():
            if rule.scope not in wanted or not self.is_enabled(rule.rule_id):
                continue
            _RULES_RUN.inc()
            report.rules_run += 1
            severity = rule.severity
            for diagnostic in rule.check(context):
                if diagnostic.severity is not severity:
                    diagnostic = Diagnostic(
                        rule=diagnostic.rule,
                        severity=severity,
                        location=diagnostic.location,
                        message=diagnostic.message,
                        hint=diagnostic.hint,
                    )
                _DIAG_COUNTERS[severity].inc()
                report.diagnostics.append(diagnostic)
        return report
