"""Transparency rules: every verdict comes from the symbolic certifier.

The certifier in :mod:`repro.analysis` is the only transparency
checker.  One :class:`~repro.analysis.Certificate` per lint pass backs
all seven rule ids:

* ``trans.input-propagation`` -- a version declares no propagate path
  for some core input (a coverage gap; the version is not proved);
* ``trans.output-justification`` -- a version declares no justify path
  for some output slice (likewise);
* ``trans.latency-overrun`` -- a path's proof derives a latency other
  than the declared one, which the cadence and TAT math would absorb;
* ``analysis.slice-provenance`` -- a declared path's slice widths do
  not line up: some root bits have no terminal provenance (width
  narrowing, dangling leaves, phantom arcs, latency lies);
* ``analysis.mux-conflict`` -- the path's ``mux_path`` demands are
  unsatisfiable (the same mux forced to two legs, or a demand on a
  missing/undersized mux) -- no select encoding realizes the mode;
* ``analysis.select-sharing`` -- advisory: two muxes on the path share
  a select net but demand different values (realizable in test mode
  via per-mux overrides, at the cost of one extra override mux);
* ``analysis.access-route`` -- a plan's delivery/observation route
  leans on a transparency path the certifier refuted, or on a path
  the selected version never declared.

Versions are certified once, in the soc pass; the plan pass adds only
the plan's routes.  The certifier import stays inside the check
functions so that :mod:`repro.analysis` stays off the ``repro profile``
import path and the baseline counter ledgers are unaffected.
"""

from __future__ import annotations

from typing import List

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintContext, Rule


def _certificate(ctx: LintContext):
    """The pass's certificate, with every version certified exactly once."""
    from repro.analysis import Certificate, certify_versions

    if ctx.certificate is None and ctx.soc is not None:
        ctx.certificate = Certificate(
            system=ctx.system,
            selection={core.name: 0 for core in ctx.soc.testable_cores()},
            versions=certify_versions(ctx.soc),
            routes=[],
        )
    return ctx.certificate


def _diagnostics(certificate, rule_id: str) -> List[Diagnostic]:
    if certificate is None:
        return []
    return [d for d in certificate.diagnostics() if d.rule == rule_id]


def _version_rule(rule_id: str):
    def check(ctx: LintContext) -> List[Diagnostic]:
        return _diagnostics(_certificate(ctx), rule_id)

    return check


def check_access_routes(ctx: LintContext) -> List[Diagnostic]:
    """analysis.access-route: plan routes ride proved transparency only."""
    from repro.analysis import certify_plan

    certificate = _certificate(ctx)
    if certificate is None:
        return []
    if ctx.plan is not None:
        certificate.selection = dict(ctx.plan.selection)
        certificate.routes = certify_plan(ctx.plan, certificate.versions)
    if ctx.plan_error is not None:
        certificate.plan_error = str(ctx.plan_error)
    return _diagnostics(certificate, "analysis.access-route")


def register_rules(registry) -> None:
    for rule_id, severity, title in (
        ("trans.input-propagation", Severity.ERROR,
         "every core input propagates to an output"),
        ("trans.output-justification", Severity.ERROR,
         "every output slice justifies from inputs"),
        ("trans.latency-overrun", Severity.WARNING,
         "declared latencies equal the proved latency"),
        ("analysis.slice-provenance", Severity.WARNING,
         "transparency paths have bit-exact terminal provenance"),
        ("analysis.mux-conflict", Severity.WARNING,
         "transparency modes have satisfiable select demands"),
        ("analysis.select-sharing", Severity.INFO,
         "shared select nets need per-mux overrides in test mode"),
    ):
        registry.register(Rule(rule_id, "soc", severity, title, _version_rule(rule_id)))
    registry.register(Rule(
        "analysis.access-route", "plan", Severity.WARNING,
        "plan access routes are certified by path proofs",
        check_access_routes,
    ))
