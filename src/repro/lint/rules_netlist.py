"""Netlist/RTL design rules: structure of each core's circuit + SOC wiring.

The circuit-scope rules reuse :func:`repro.rtl.validate.iter_circuit_problems`
(the same checks ``validate_circuit`` enforces at construction time) but
report *every* violation as a diagnostic instead of raising on the
first.  The soc-scope rule covers the interconnect contract: every input
bit of every testable core driven exactly once.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.lint.diagnostics import Diagnostic, Severity, location
from repro.lint.registry import LintContext
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

#: problem categories mapped onto each circuit-scope rule id
_RULE_CATEGORIES = {
    "rtl.comb-loop": {CATEGORY_LOOP},
    "rtl.undriven": {CATEGORY_UNDRIVEN, CATEGORY_REFERENCE, CATEGORY_IO},
    "rtl.width-mismatch": {CATEGORY_WIDTH, CATEGORY_SHAPE},
}

_HINTS = {
    "rtl.comb-loop": "break the loop with a register or re-derive the driver expression",
    "rtl.undriven": "connect the floating net or drop the dead component",
    "rtl.width-mismatch": "slice or zero-extend the driver to the declared width",
}


def _circuit_diagnostics(ctx: LintContext, rule_id: str, severity: Severity) -> Iterator[Diagnostic]:
    wanted = _RULE_CATEGORIES[rule_id]
    for label, circuit in ctx.circuits:
        for problem in iter_circuit_problems(circuit):
            if problem.category not in wanted:
                continue
            parts: List[object] = [ctx.system, ("core", label)]
            if problem.component:
                parts.append(("net", problem.component))
            yield Diagnostic(
                rule=rule_id,
                severity=severity,
                location=location(*parts),
                message=problem.message,
                hint=_HINTS[rule_id],
            )


def check_comb_loop(ctx: LintContext) -> Iterator[Diagnostic]:
    """rtl.comb-loop: no combinational cycles (registers break loops)."""
    return _circuit_diagnostics(ctx, "rtl.comb-loop", Severity.ERROR)


def check_undriven(ctx: LintContext) -> Iterator[Diagnostic]:
    """rtl.undriven: no floating nets, missing drivers, dangling refs."""
    return _circuit_diagnostics(ctx, "rtl.undriven", Severity.ERROR)


def check_width_mismatch(ctx: LintContext) -> Iterator[Diagnostic]:
    """rtl.width-mismatch: driver/operand widths match declarations."""
    return _circuit_diagnostics(ctx, "rtl.width-mismatch", Severity.ERROR)


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


def check_unreachable_registers(ctx: LintContext) -> Iterator[Diagnostic]:
    """rtl.unreachable-reg: every register is controllable from inputs.

    A register no input can influence holds test-irrelevant
    state: ATPG cannot set it and transparency cannot route through it.
    """
    for label, circuit in ctx.circuits:
        reachable = _reachable_from_inputs(circuit)
        for register in circuit.registers:
            if register.name not in reachable:
                yield Diagnostic(
                    rule="rtl.unreachable-reg",
                    severity=Severity.WARNING,
                    location=location(ctx.system, ("core", label), ("net", register.name)),
                    message=(
                        f"register {register.name!r} is not reachable from any input"
                    ),
                    hint="add a load path from an input",
                )


# ----------------------------------------------------------------------
def check_input_drivers(ctx: LintContext) -> Iterator[Diagnostic]:
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
            yield Diagnostic(
                rule="soc.input-drivers",
                severity=Severity.ERROR,
                location=where,
                message=(
                    f"input {core.name}.{port.name} has multiply-driven bits "
                    f"(mask {contended:#x})"
                ),
                hint="remove or re-slice the extra driver net",
            )
        if missing:
            yield Diagnostic(
                rule="soc.input-drivers",
                severity=Severity.ERROR,
                location=where,
                message=(
                    f"input {core.name}.{port.name} has undriven bits "
                    f"(mask {missing:#x})"
                ),
                hint="wire the missing bits from a chip pin or core output",
            )


def register_rules(registry) -> None:
    from repro.lint.registry import Rule

    registry.register(Rule(
        "rtl.comb-loop", "circuit", Severity.ERROR,
        "no combinational cycles in core RTL", check_comb_loop,
    ))
    registry.register(Rule(
        "rtl.undriven", "circuit", Severity.ERROR,
        "no floating nets or missing drivers", check_undriven,
    ))
    registry.register(Rule(
        "rtl.width-mismatch", "circuit", Severity.ERROR,
        "driver and operand widths are consistent", check_width_mismatch,
    ))
    registry.register(Rule(
        "rtl.unreachable-reg", "circuit", Severity.WARNING,
        "every register is controllable from inputs", check_unreachable_registers,
    ))
    registry.register(Rule(
        "soc.input-drivers", "soc", Severity.ERROR,
        "every core input bit driven exactly once", check_input_drivers,
    ))
