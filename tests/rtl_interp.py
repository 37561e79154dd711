"""A direct RTL interpreter -- the reference model for elaboration.

Evaluates an :class:`RTLCircuit` cycle by cycle at word level, entirely
independently of the gate-level path (no netlists, no bit-blasting).
``test_crosscheck.py`` and ``test_structural_properties.py`` check
elaborate+simulate against it on the designs and on random circuits, so
a disagreement pinpoints a bug in one of the two layers.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import SimulationError
from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Constant, Input, Mux, Operator, Output, Register
from repro.rtl.types import Expr, OpKind, expr_parts


class RTLInterpreter:
    """Word-level reference simulator for RTL circuits."""

    def __init__(self, circuit: RTLCircuit) -> None:
        self.circuit = circuit
        self.state: Dict[str, int] = {r.name: 0 for r in circuit.registers}
        self._inputs: Dict[str, int] = {}
        self._values: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _mask(self, width: int) -> int:
        return (1 << width) - 1

    def _eval_expr(self, expr: Expr) -> int:
        value = 0
        shift = 0
        for part in expr_parts(expr):
            word = self._eval_comp(part.comp)
            value |= ((word >> part.lo) & self._mask(part.width)) << shift
            shift += part.width
        return value

    def _eval_comp(self, name: str) -> int:
        if name in self._values:
            return self._values[name]
        component = self.circuit.get(name)
        if isinstance(component, Input):
            try:
                result = self._inputs[name] & self._mask(component.width)
            except KeyError:
                raise SimulationError(f"no value for input {name!r}") from None
        elif isinstance(component, Register):
            result = self.state[name]
        elif isinstance(component, Constant):
            result = component.value
        elif isinstance(component, Mux):
            select = self._eval_expr(component.select)
            index = min(select, len(component.inputs) - 1)
            result = self._eval_expr(component.inputs[index])
        elif isinstance(component, Operator):
            result = self._eval_op(component)
        elif isinstance(component, Output):
            result = self._eval_expr(component.driver)
        else:
            raise SimulationError(f"cannot interpret component {name!r}")
        self._values[name] = result
        return result

    def _eval_op(self, op: Operator) -> int:
        operands = [self._eval_expr(e) for e in op.operands]
        mask = self._mask(op.width)
        kind = op.op
        if kind is OpKind.ADD:
            return (operands[0] + operands[1]) & mask
        if kind is OpKind.SUB:
            return (operands[0] - operands[1]) & mask
        if kind is OpKind.INC:
            return (operands[0] + 1) & mask
        if kind is OpKind.DEC:
            return (operands[0] - 1) & mask
        if kind is OpKind.AND:
            return operands[0] & operands[1]
        if kind is OpKind.OR:
            return operands[0] | operands[1]
        if kind is OpKind.XOR:
            return operands[0] ^ operands[1]
        if kind is OpKind.NOT:
            return ~operands[0] & mask
        if kind is OpKind.EQ:
            return int(operands[0] == operands[1])
        if kind is OpKind.LT:
            return int(operands[0] < operands[1])
        if kind is OpKind.SHL:
            return (operands[0] << 1) & mask
        if kind is OpKind.SHR:
            return operands[0] >> 1
        if kind is OpKind.DECODE:
            return 1 << operands[0]
        if kind is OpKind.REDUCE_OR:
            return int(operands[0] != 0)
        if kind is OpKind.REDUCE_AND:
            source_width = sum(p.width for p in expr_parts(op.operands[0]))
            return int(operands[0] == self._mask(source_width))
        raise SimulationError(f"unsupported operator {kind}")

    # ------------------------------------------------------------------
    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Apply one clock cycle; returns output-port values."""
        self._inputs = dict(inputs)
        self._values = {}
        outputs = {
            port.name: self._eval_comp(port.name) for port in self.circuit.outputs
        }
        next_state = dict(self.state)
        for register in self.circuit.registers:
            load = True
            if register.enable is not None:
                load = bool(self._eval_expr(register.enable) & 1)
            value = self.state[register.name]
            if load:
                value = self._eval_expr(register.driver)
            next_state[register.name] = value & self._mask(register.width)
        self.state = next_state
        return outputs
