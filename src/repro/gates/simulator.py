"""Word-parallel logic simulation.

Each net carries a Python integer *word*; bit ``p`` of the word is the
net's value under test pattern ``p``.  Because Python integers are
arbitrary precision, any number of patterns can be evaluated in a single
pass -- the fault simulator typically packs 64 at a time so that fault
dropping stays responsive.

This scalar evaluator is the one-machine simulator: a single machine
runs faster here than on the compiled numpy programs of
:mod:`repro.gates.kernel`, which fault grading uses to evaluate many
machines per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import SimulationError
from repro.gates.cells import SOURCE_KINDS, GateKind
from repro.gates.levelize import levelize
from repro.gates.netlist import Gate, GateNetlist


@dataclass(frozen=True)
class FaultSite:
    """A stuck-at fault injection point for simulation.

    ``gate`` names the faulty gate; ``pin`` is ``None`` for an output
    (stem) fault or the fanin index for an input (branch) fault;
    ``stuck_value`` is 0 or 1.
    """

    gate: str
    pin: Optional[int]
    stuck_value: int


class CombinationalSimulator:
    """Levelized word-parallel evaluator for the combinational view."""

    def __init__(self, netlist: GateNetlist) -> None:
        self.netlist = netlist
        self._order: List[str] = [
            name for name in levelize(netlist) if netlist.gate(name).kind not in SOURCE_KINDS
        ]
        self._gates: Dict[str, Gate] = {name: netlist.gate(name) for name in netlist.names()}

    @property
    def order(self) -> Sequence[str]:
        """Combinational gates in evaluation order."""
        return self._order

    # ------------------------------------------------------------------
    def run(
        self,
        sources: Mapping[str, int],
        pattern_count: int,
        fault: Optional[FaultSite] = None,
    ) -> Dict[str, int]:
        """Evaluate all nets for up to ``pattern_count`` packed patterns.

        ``sources`` maps every INPUT and flip-flop gate name to its packed
        value word.  Returns a dict with a word for every gate.
        """
        if pattern_count <= 0:
            raise SimulationError("pattern_count must be positive")
        mask = (1 << pattern_count) - 1
        values: Dict[str, int] = {}
        for gate in self._gates.values():
            if gate.kind is GateKind.INPUT or gate.kind in (GateKind.DFF, GateKind.SDFF):
                try:
                    values[gate.name] = sources[gate.name] & mask
                except KeyError:
                    raise SimulationError(f"no value supplied for source {gate.name!r}") from None
            elif gate.kind is GateKind.CONST0:
                values[gate.name] = 0
            elif gate.kind is GateKind.CONST1:
                values[gate.name] = mask

        if fault is not None and fault.pin is None:
            if fault.gate in values:
                values[fault.gate] = mask if fault.stuck_value else 0

        stuck_output = fault.gate if fault is not None and fault.pin is None else None
        for name in self._order:
            gate = self._gates[name]
            if name == stuck_output:
                values[name] = mask if fault.stuck_value else 0  # type: ignore[union-attr]
            else:
                values[name] = self._eval_gate(gate, values, mask, fault)
        return values

    # ------------------------------------------------------------------
    def _eval_gate(
        self,
        gate: Gate,
        values: Mapping[str, int],
        mask: int,
        fault: Optional[FaultSite],
    ) -> int:
        operands = [values[source] for source in gate.fanins]
        if fault is not None and fault.pin is not None and fault.gate == gate.name:
            operands[fault.pin] = mask if fault.stuck_value else 0
        return eval_kind(gate.kind, operands, mask)


def eval_kind(kind: GateKind, operands: Sequence[int], mask: int) -> int:
    """Evaluate one gate of ``kind`` over packed operand words."""
    if kind in (GateKind.BUF, GateKind.OUTPUT):
        return operands[0]
    if kind is GateKind.NOT:
        return ~operands[0] & mask
    if kind is GateKind.AND:
        result = mask
        for word in operands:
            result &= word
        return result
    if kind is GateKind.OR:
        result = 0
        for word in operands:
            result |= word
        return result
    if kind is GateKind.NAND:
        result = mask
        for word in operands:
            result &= word
        return ~result & mask
    if kind is GateKind.NOR:
        result = 0
        for word in operands:
            result |= word
        return ~result & mask
    if kind is GateKind.XOR:
        return operands[0] ^ operands[1]
    if kind is GateKind.XNOR:
        return ~(operands[0] ^ operands[1]) & mask
    if kind is GateKind.MUX2:
        d0, d1, select = operands
        return (d0 & ~select) | (d1 & select)
    raise SimulationError(f"cannot evaluate gate kind {kind.value}")


def next_state_word(gate: Gate, values: Mapping[str, int], mask: int) -> int:
    """The value a flip-flop captures at the next clock edge."""
    if gate.kind is GateKind.DFF:
        return values[gate.fanins[0]] & mask
    if gate.kind is GateKind.SDFF:
        d, scan_in, scan_enable = (values[f] for f in gate.fanins)
        return ((d & ~scan_enable) | (scan_in & scan_enable)) & mask
    raise SimulationError(f"{gate.name!r} is not a state element")
