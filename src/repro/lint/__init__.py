"""Static design-rule checking and plan verification (``repro lint``).

A fast, simulation-free pass over the three artifact layers of the SOCET
flow, emitting structured :class:`Diagnostic` objects with stable rule
ids (see DESIGN.md, "Diagnostic contract"):

* **netlist/RTL** -- combinational loops, floating/multiply-driven
  nets, width mismatches, unreachable registers;
* **transparency** -- the symbolic certifier (:mod:`repro.analysis`),
  the one transparency checker, backs the ``trans.*`` and
  ``analysis.*`` rules: every core input has a propagate path and every
  output slice a justify path, each re-proved at the bit-slice level
  within its declared latency (terminal provenance for every root bit,
  satisfiable mux-select demands), and plan access routes ride proved
  paths only;
* **plan** -- reservation windows fit their cadences, test-mux
  fallbacks are recorded, TAT accounting is internally consistent.

A concurrent schedule is not linted: :meth:`repro.schedule.TestSchedule.validate`
is its one check, run on every schedule the scheduler builds.

Alongside the domain rules, :mod:`repro.lint.codestyle` is an AST-based
determinism lint for the codebase itself (``python -m
repro.lint.codestyle``): the plan cache, the exact counter gate and
the byte-stable artifacts rely on bit-identical replay, so unseeded
RNGs, wall-clock reads in planner code, and ordering-sensitive ``set``
iteration are design-rule violations too.

Typical use::

    from repro.lint import lint_soc
    report = lint_soc(build_system3())
    assert not report.errors, report.render()
"""

from __future__ import annotations

from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    REPORT_SCHEMA_VERSION,
    Severity,
    location,
)
from repro.lint.registry import LintContext, Rule, run_rules
from repro.lint import rules_analysis, rules_netlist, rules_plan
from repro.lint.runner import lint_soc

#: every rule, in the order a pass runs them and ``repro lint --rules``
#: lists them
RULES = rules_netlist.RULES + rules_analysis.RULES + rules_plan.RULES

__all__ = [
    "Diagnostic",
    "LintReport",
    "REPORT_SCHEMA_VERSION",
    "Severity",
    "location",
    "LintContext",
    "Rule",
    "RULES",
    "run_rules",
    "lint_soc",
]
