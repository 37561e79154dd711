"""Structural elaboration of RTL circuits into gate netlists.

Naming convention: bit ``i`` of RTL input ``P`` becomes gate ``P.i``
(an ``INPUT``), bit ``i`` of register ``R`` becomes gate ``R.i`` (a
``DFF``), and bit ``i`` of output port ``O`` becomes the ``OUTPUT``
marker gate ``O.i``.  Mux and operator internals use generated names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ElaborationError
from repro.elaborate import mapping as macros
from repro.gates.cells import GateKind
from repro.gates.netlist import GateNetlist
from repro.obs import profile_section
from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Mux, Operator
from repro.rtl.types import ComponentKind, Expr, OpKind, expr_parts
from repro.util.namegen import NameGenerator


@dataclass
class Elaborated:
    """Result of elaboration: the netlist plus RTL-to-gate bit maps."""

    circuit: RTLCircuit
    netlist: GateNetlist
    #: RTL component name -> its output bit nets (LSB first)
    comp_bits: Dict[str, List[str]] = field(default_factory=dict)

    def input_bits(self, port: str) -> List[str]:
        return list(self.comp_bits[port])


def elaborate(circuit: RTLCircuit) -> Elaborated:
    """Elaborate ``circuit`` into a validated gate netlist."""
    with profile_section("corelevel.elaborate"):
        return _elaborate(circuit)


def _elaborate(circuit: RTLCircuit) -> Elaborated:
    netlist = GateNetlist(circuit.name)
    names = NameGenerator()
    comp_bits: Dict[str, List[str]] = {}

    for component in circuit.components():
        names.reserve(component.name)
        for i in range(component.width):
            names.reserve(f"{component.name}.{i}")

    # 1. sources: inputs, constants, and flip-flops (D pins patched later)
    for port in circuit.inputs:
        comp_bits[port.name] = [
            netlist.add_gate(f"{port.name}.{i}", GateKind.INPUT) for i in range(port.width)
        ]
    for constant in circuit.constants:
        comp_bits[constant.name] = [
            netlist.add_gate(
                f"{constant.name}.{i}",
                GateKind.CONST1 if (constant.value >> i) & 1 else GateKind.CONST0,
            )
            for i in range(constant.width)
        ]
    for register in circuit.registers:
        bits = []
        for i in range(register.width):
            gate_name = f"{register.name}.{i}"
            netlist.add_gate(gate_name, GateKind.DFF, [gate_name])  # self-loop placeholder
            bits.append(gate_name)
        comp_bits[register.name] = bits

    def expr_to_bits(expr: Expr) -> List[str]:
        bits: List[str] = []
        for part in expr_parts(expr):
            source_bits = comp_bits.get(part.comp)
            if source_bits is None:
                raise ElaborationError(f"component {part.comp!r} referenced before elaboration")
            bits.extend(source_bits[part.lo : part.lo + part.width])
        return bits

    # 2. combinational components in dependency order
    for component in _combinational_order(circuit):
        if isinstance(component, Mux):
            input_bits = [expr_to_bits(expr) for expr in component.inputs]
            select_bits = expr_to_bits(component.select)  # type: ignore[arg-type]
            comp_bits[component.name] = macros.mux_tree(
                netlist, names, component.name, input_bits, select_bits
            )
        elif isinstance(component, Operator):
            comp_bits[component.name] = _elaborate_operator(netlist, names, component, expr_to_bits)

    # 3. patch register D pins (driver, then enable mux)
    for register in circuit.registers:
        driver_bits = expr_to_bits(register.driver)  # type: ignore[arg-type]
        if register.enable is not None:
            enable_bit = expr_to_bits(register.enable)[0]
            driver_bits = [
                netlist.add_gate(
                    names.fresh(f"{register.name}_en"),
                    GateKind.MUX2,
                    [comp_bits[register.name][i], driver_bits[i], enable_bit],
                )
                for i in range(register.width)
            ]
        for i in range(register.width):
            netlist.replace_gate(f"{register.name}.{i}", GateKind.DFF, [driver_bits[i]])

    # 4. output markers
    for port in circuit.outputs:
        driver_bits = expr_to_bits(port.driver)  # type: ignore[arg-type]
        for i in range(port.width):
            netlist.add_gate(f"{port.name}.{i}", GateKind.OUTPUT, [driver_bits[i]])

    netlist.validate()
    return Elaborated(circuit=circuit, netlist=netlist, comp_bits=comp_bits)


def _combinational_order(circuit: RTLCircuit) -> List:
    """Muxes and operators sorted so fanins elaborate first."""
    combinational = {
        c.name: c
        for c in circuit.components()
        if c.kind in (ComponentKind.MUX, ComponentKind.OPERATOR)
    }
    pending: Dict[str, int] = {}
    readers: Dict[str, List[str]] = {name: [] for name in combinational}
    for name, component in combinational.items():
        fanins = [f for f in circuit.fanin_names(component) if f in combinational]
        pending[name] = len(fanins)
        for fanin in fanins:
            readers[fanin].append(name)
    ready = [name for name, count in pending.items() if count == 0]
    order: List = []
    while ready:
        name = ready.pop()
        order.append(combinational[name])
        for reader in readers[name]:
            pending[reader] -= 1
            if pending[reader] == 0:
                ready.append(reader)
    if len(order) != len(combinational):
        raise ElaborationError(f"combinational cycle in circuit {circuit.name!r}")
    return order


def _elaborate_operator(
    netlist: GateNetlist,
    names: NameGenerator,
    op: Operator,
    expr_to_bits,
) -> List[str]:
    operands = [expr_to_bits(expr) for expr in op.operands]
    prefix = op.name
    if op.op is OpKind.ADD:
        zero = macros.const_bit(netlist, names, prefix, 0)
        return macros.ripple_add(netlist, names, prefix, operands[0], operands[1], zero)[:-1]
    if op.op is OpKind.SUB:
        return macros.subtract(netlist, names, prefix, operands[0], operands[1])[:-1]
    if op.op is OpKind.INC:
        return macros.increment(netlist, names, prefix, operands[0])
    if op.op is OpKind.DEC:
        return macros.decrement(netlist, names, prefix, operands[0])
    if op.op is OpKind.AND:
        return macros.bitwise(netlist, names, prefix, GateKind.AND, operands[0], operands[1])
    if op.op is OpKind.OR:
        return macros.bitwise(netlist, names, prefix, GateKind.OR, operands[0], operands[1])
    if op.op is OpKind.XOR:
        return macros.bitwise(netlist, names, prefix, GateKind.XOR, operands[0], operands[1])
    if op.op is OpKind.NOT:
        return macros.invert(netlist, names, prefix, operands[0])
    if op.op is OpKind.EQ:
        return [macros.equals(netlist, names, prefix, operands[0], operands[1])]
    if op.op is OpKind.LT:
        return [macros.less_than(netlist, names, prefix, operands[0], operands[1])]
    if op.op is OpKind.SHL:
        return macros.shift_left(netlist, names, prefix, operands[0])
    if op.op is OpKind.SHR:
        return macros.shift_right(netlist, names, prefix, operands[0])
    if op.op is OpKind.DECODE:
        return macros.decode(netlist, names, prefix, operands[0])
    if op.op is OpKind.REDUCE_OR:
        return [macros.reduce_gate(netlist, names, prefix, GateKind.OR, operands[0])]
    if op.op is OpKind.REDUCE_AND:
        return [macros.reduce_gate(netlist, names, prefix, GateKind.AND, operands[0])]
    raise ElaborationError(f"unsupported operator kind {op.op}")
