"""Netlist/RTL design rules: structure of each core's circuit + SOC wiring.

The circuit-scope rules reuse :func:`repro.rtl.validate.iter_circuit_problems`
(the same checks ``validate_circuit`` enforces at construction time) but
report *every* violation as a diagnostic instead of raising on the
first.  The soc-scope rule covers the interconnect contract: every input
bit of every testable core driven exactly once.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.lint.diagnostics import Severity, location
from repro.lint.registry import Finding, LintContext, Rule
from repro.rtl.circuit import RTLCircuit
from repro.rtl.validate import (
    CATEGORY_IO,
    CATEGORY_LOOP,
    CATEGORY_REFERENCE,
    CATEGORY_SHAPE,
    CATEGORY_UNDRIVEN,
    CATEGORY_WIDTH,
    iter_circuit_problems,
)


def _circuit_check(categories, hint: str):
    """A check reporting every circuit problem in ``categories``; the
    three circuit rules share one scan of each circuit per pass."""

    def check(ctx: LintContext) -> Iterator[Finding]:
        if ctx.circuit_problems is None:
            ctx.circuit_problems = [
                (label, list(iter_circuit_problems(circuit)))
                for label, circuit in ctx.circuits
            ]
        for label, problems in ctx.circuit_problems:
            for problem in problems:
                if problem.category not in categories:
                    continue
                parts: List[object] = [ctx.system, ("core", label)]
                if problem.component:
                    parts.append(("net", problem.component))
                yield location(*parts), problem.message, hint

    return check


# ----------------------------------------------------------------------
def _reachable_from_inputs(circuit: RTLCircuit) -> Set[str]:
    """Components whose value an input can influence (forward fixpoint
    over driver expressions)."""
    reachable: Set[str] = {c.name for c in circuit.inputs}
    changed = True
    while changed:
        changed = False
        for component in circuit.components():
            if component.name in reachable:
                continue
            fanins = circuit.fanin_names(component)
            if fanins and any(name in reachable for name in fanins):
                reachable.add(component.name)
                changed = True
    return reachable


def check_unreachable_registers(ctx: LintContext) -> Iterator[Finding]:
    """rtl.unreachable-reg: every register is controllable from inputs.

    A register no input can influence holds test-irrelevant
    state: ATPG cannot set it and transparency cannot route through it.
    """
    for label, circuit in ctx.circuits:
        reachable = _reachable_from_inputs(circuit)
        for register in circuit.registers:
            if register.name not in reachable:
                yield (
                    location(ctx.system, ("core", label), ("net", register.name)),
                    f"register {register.name!r} is not reachable from any input",
                    "add a load path from an input",
                )


# ----------------------------------------------------------------------
def check_input_drivers(ctx: LintContext) -> Iterator[Finding]:
    """soc.input-drivers: each testable-core input bit driven exactly once.

    Floating input bits make a core untestable through the interconnect;
    multiply-driven bits are electrical contention.  The rule and
    ``Soc.validate`` read the same :meth:`Soc.driver_problems`; validate
    raises on the first port, the rule reports every one.
    """
    if ctx.soc is None:
        return
    for core, port, contended, missing in ctx.soc.driver_problems():
        where = location(ctx.system, ("core", core.name), ("port", port.name))
        if contended:
            yield (
                where,
                f"input {core.name}.{port.name} has multiply-driven bits (mask {contended:#x})",
                "remove or re-slice the extra driver net",
            )
        if missing:
            yield (
                where,
                f"input {core.name}.{port.name} has undriven bits (mask {missing:#x})",
                "wire the missing bits from a chip pin or core output",
            )


RULES = (
    Rule("rtl.comb-loop", "circuit", Severity.ERROR,
         "no combinational cycles in core RTL",
         _circuit_check({CATEGORY_LOOP},
                        "break the loop with a register or re-derive the driver expression")),
    Rule("rtl.undriven", "circuit", Severity.ERROR,
         "no floating nets or missing drivers",
         _circuit_check({CATEGORY_UNDRIVEN, CATEGORY_REFERENCE, CATEGORY_IO},
                        "connect the floating net or drop the dead component")),
    Rule("rtl.width-mismatch", "circuit", Severity.ERROR,
         "driver and operand widths are consistent",
         _circuit_check({CATEGORY_WIDTH, CATEGORY_SHAPE},
                        "slice or zero-extend the driver to the declared width")),
    Rule("rtl.unreachable-reg", "circuit", Severity.WARNING,
         "every register is controllable from inputs", check_unreachable_registers),
    Rule("soc.input-drivers", "soc", Severity.ERROR,
         "every core input bit driven exactly once", check_input_drivers),
)
