"""Structural validation of RTL circuits.

Checks performed:

* every referenced component exists;
* driver/operand widths are consistent with component widths;
* every output and register has a driver; mux selects are wide enough;
* slices stay within the width of the component they slice;
* the combinational subgraph (muxes, operators, output drivers) is
  acyclic -- registers legally break cycles.

Two entry points share the same checks:

* :func:`validate_circuit` raises :class:`~repro.errors.NetlistError`
  on the first problem (construction-time contract, unchanged);
* :func:`iter_circuit_problems` yields *every* problem as a categorized
  :class:`CircuitProblem`, which the static design-rule checker
  (:mod:`repro.lint`) maps onto stable rule ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import NetlistError
from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Component, Mux, Operator, Output, Register
from repro.rtl.types import ComponentKind, Expr, OpKind, expr_parts, expr_width

#: problem categories yielded by :func:`iter_circuit_problems`
CATEGORY_IO = "io"  # circuit has no inputs / no outputs
CATEGORY_REFERENCE = "reference"  # dangling or illegal component reference
CATEGORY_UNDRIVEN = "undriven"  # output/register/mux without a driver or select
CATEGORY_WIDTH = "width"  # width or slice-bound mismatch
CATEGORY_SHAPE = "shape"  # operator arity/width contract violated
CATEGORY_LOOP = "loop"  # combinational cycle


@dataclass(frozen=True)
class CircuitProblem:
    """One structural problem, categorized for the lint rule layer."""

    category: str
    component: Optional[str]
    message: str


def _check_expr(circuit: RTLCircuit, owner: str, expr: Expr) -> Iterator[CircuitProblem]:
    for part in expr_parts(expr):
        if part.comp not in circuit:
            yield CircuitProblem(
                CATEGORY_REFERENCE, owner,
                f"{owner}: reference to unknown component {part.comp!r}",
            )
            continue
        referenced = circuit.get(part.comp)
        if referenced.kind is ComponentKind.OUTPUT:
            yield CircuitProblem(
                CATEGORY_REFERENCE, owner,
                f"{owner}: output port {part.comp!r} cannot be read internally",
            )
        if part.hi > referenced.width:
            yield CircuitProblem(
                CATEGORY_WIDTH, owner,
                f"{owner}: slice {part} exceeds width {referenced.width} of {part.comp!r}",
            )


def _check_component(circuit: RTLCircuit, component: Component) -> Iterator[CircuitProblem]:
    name = component.name
    if isinstance(component, Output):
        if component.driver is None:
            yield CircuitProblem(
                CATEGORY_UNDRIVEN, name, f"output {name!r} has no driver"
            )
            return
        yield from _check_expr(circuit, name, component.driver)
        if expr_width(component.driver) != component.width:
            yield CircuitProblem(
                CATEGORY_WIDTH, name,
                f"output {name!r}: driver width {expr_width(component.driver)} != {component.width}",
            )
    elif isinstance(component, Register):
        if component.driver is None:
            yield CircuitProblem(
                CATEGORY_UNDRIVEN, name, f"register {name!r} has no driver"
            )
            return
        yield from _check_expr(circuit, name, component.driver)
        if expr_width(component.driver) != component.width:
            yield CircuitProblem(
                CATEGORY_WIDTH, name,
                f"register {name!r}: driver width {expr_width(component.driver)} != {component.width}",
            )
        if component.enable is not None:
            yield from _check_expr(circuit, name, component.enable)
            if expr_width(component.enable) != 1:
                yield CircuitProblem(
                    CATEGORY_WIDTH, name, f"register {name!r}: enable must be 1 bit"
                )
    elif isinstance(component, Mux):
        if len(component.inputs) < 2:
            yield CircuitProblem(
                CATEGORY_SHAPE, name, f"mux {name!r} needs at least 2 inputs"
            )
        for index, expr in enumerate(component.inputs):
            yield from _check_expr(circuit, f"{name}.in{index}", expr)
            if expr_width(expr) != component.width:
                yield CircuitProblem(
                    CATEGORY_WIDTH, name,
                    f"mux {name!r} input {index}: width {expr_width(expr)} != {component.width}",
                )
        if component.select is None:
            yield CircuitProblem(
                CATEGORY_UNDRIVEN, name, f"mux {name!r} has no select"
            )
            return
        yield from _check_expr(circuit, f"{name}.select", component.select)
        if expr_width(component.select) < component.select_width:
            yield CircuitProblem(
                CATEGORY_WIDTH, name,
                f"mux {name!r}: select width {expr_width(component.select)} cannot address "
                f"{len(component.inputs)} inputs",
            )
    elif isinstance(component, Operator):
        for index, expr in enumerate(component.operands):
            yield from _check_expr(circuit, f"{name}.op{index}", expr)
        yield from _check_operator_shape(component)


def _check_operator_shape(op: Operator) -> Iterator[CircuitProblem]:
    arity = len(op.operands)
    widths = [expr_width(e) for e in op.operands]
    if op.op in (OpKind.NOT, OpKind.INC, OpKind.DEC, OpKind.SHL, OpKind.SHR):
        if arity != 1:
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r} ({op.op.value}) needs 1 operand",
            )
        elif op.width != widths[0]:
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r}: output width must equal operand width",
            )
    elif op.op in (OpKind.REDUCE_OR, OpKind.REDUCE_AND):
        if arity != 1 or op.width != 1:
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r} ({op.op.value}) is unary with 1-bit output",
            )
    elif op.op is OpKind.DECODE:
        if arity != 1 or op.width != (1 << widths[0]):
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r}: decode output must be 2^input wide",
            )
    elif op.op in (OpKind.EQ, OpKind.LT):
        if arity != 2 or widths[0] != widths[1] or op.width != 1:
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r} ({op.op.value}) compares equal widths to 1 bit",
            )
    else:  # ADD, SUB, AND, OR, XOR
        if arity != 2 or widths[0] != widths[1]:
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r} ({op.op.value}) needs 2 equal-width operands",
            )
        elif op.width != widths[0]:
            yield CircuitProblem(
                CATEGORY_SHAPE, op.name,
                f"operator {op.name!r}: output width must equal operand width",
            )


def _check_acyclic(circuit: RTLCircuit) -> Iterator[CircuitProblem]:
    """Depth-first cycle check over the combinational components only.

    Yields one problem per distinct back edge found, continuing the
    search past each so a circuit with several independent loops reports
    them all.
    """
    combinational = {
        c.name
        for c in circuit.components()
        if c.kind in (ComponentKind.MUX, ComponentKind.OPERATOR, ComponentKind.OUTPUT)
    }
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {name: WHITE for name in combinational}

    def fanin(name: str) -> List[str]:
        return [
            source
            for source in circuit.fanin_names(circuit.get(name))
            if source in combinational
        ]

    for start in combinational:
        if color[start] is not WHITE:
            continue
        stack: List[tuple] = [(start, iter(fanin(start)))]
        color[start] = GREY
        while stack:
            node, iterator = stack[-1]
            advanced = False
            for source in iterator:
                if color[source] == GREY:
                    yield CircuitProblem(
                        CATEGORY_LOOP, source,
                        f"combinational cycle through {source!r} in circuit {circuit.name!r}",
                    )
                    continue
                if color[source] == WHITE:
                    color[source] = GREY
                    stack.append((source, iter(fanin(source))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()


def iter_circuit_problems(circuit: RTLCircuit) -> Iterator[CircuitProblem]:
    """Yield every structural problem, in deterministic check order.

    The first yielded problem is exactly the one
    :func:`validate_circuit` raises for.
    """
    if not circuit.inputs:
        yield CircuitProblem(
            CATEGORY_IO, None, f"circuit {circuit.name!r} has no inputs"
        )
    if not circuit.outputs:
        yield CircuitProblem(
            CATEGORY_IO, None, f"circuit {circuit.name!r} has no outputs"
        )
    for component in circuit.components():
        yield from _check_component(circuit, component)
    yield from _check_acyclic(circuit)


def validate_circuit(circuit: RTLCircuit) -> RTLCircuit:
    """Run all structural checks; returns the circuit for chaining."""
    for problem in iter_circuit_problems(circuit):
        raise NetlistError(problem.message)
    return circuit
