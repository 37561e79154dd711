"""Clocked (multi-cycle) simulation on top of the combinational evaluator."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import SimulationError
from repro.gates.netlist import GateNetlist
from repro.gates.simulator import CombinationalSimulator, FaultSite, next_state_word


class SequentialSimulator:
    """Cycle-by-cycle simulation with word-parallel patterns.

    All flip-flops start at 0 across all patterns (``states`` holds each
    flop's word; set one before stepping to start elsewhere).  Each call to
    :meth:`step` applies one input assignment, evaluates the combinational
    logic, records the primary outputs, and clocks the state.
    """

    def __init__(
        self,
        netlist: GateNetlist,
        pattern_count: int = 1,
        fault: Optional[FaultSite] = None,
    ) -> None:
        if pattern_count <= 0:
            raise SimulationError("pattern_count must be positive")
        self.netlist = netlist
        self.pattern_count = pattern_count
        self._mask = (1 << pattern_count) - 1
        self._sim = CombinationalSimulator(netlist)
        self._fault = fault
        self._flops = netlist.flops
        self._inputs = [gate.name for gate in netlist.inputs]
        self._outputs = [gate.name for gate in netlist.outputs]
        self.states: Dict[str, int] = {flop.name: 0 for flop in self._flops}

    def step(self, input_words: Mapping[str, int]) -> Dict[str, int]:
        """Apply one cycle; returns the packed primary-output values."""
        sources = dict(self.states)
        for name in self._inputs:
            try:
                sources[name] = input_words[name] & self._mask
            except KeyError:
                raise SimulationError(f"no value for input {name!r}") from None
        values = self._sim.run(sources, self.pattern_count, fault=self._fault)
        outputs = {name: values[name] for name in self._outputs}
        for flop in self._flops:
            self.states[flop.name] = next_state_word(flop, values, self._mask)
            if self._fault is not None and self._fault.pin is None and self._fault.gate == flop.name:
                self.states[flop.name] = self._mask if self._fault.stuck_value else 0
        return outputs

    def run_sequence(self, input_sequence: Sequence[Mapping[str, int]]) -> List[Dict[str, int]]:
        """Apply a list of per-cycle input assignments; returns PO traces."""
        return [self.step(cycle_inputs) for cycle_inputs in input_sequence]
