"""The single-stuck-at fault universe of a gate netlist.

Faults live on gate *output stems* and on gate *input pins*.  Input-pin
faults are only enumerated where they are not trivially equivalent to the
driving stem's fault -- i.e. when the driving net has fanout greater than
one (fanout branches can diverge from the stem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.gates.cells import GateKind
from repro.gates.netlist import Gate, GateNetlist
from repro.gates.simulator import FaultSite

_NO_STEM_FAULT = (GateKind.OUTPUT, GateKind.CONST0, GateKind.CONST1)


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault.

    ``pin`` is ``None`` for a fault on the gate's output stem, otherwise
    the index of the faulty fanin pin.  ``stuck`` is the stuck value.
    """

    gate: str
    pin: Optional[int]
    stuck: int

    def site(self) -> FaultSite:
        return FaultSite(self.gate, self.pin, self.stuck)

    def sort_key(self) -> tuple:
        """Deterministic ordering key (stem faults sort before pin faults)."""
        return (self.gate, -1 if self.pin is None else self.pin, self.stuck)

    def __str__(self) -> str:
        location = self.gate if self.pin is None else f"{self.gate}.pin{self.pin}"
        return f"{location}/sa{self.stuck}"


def misfit(fault: Fault, pins: int, netlist: GateNetlist) -> Optional[str]:
    """Why ``fault`` cannot sit on its gate of ``netlist``, which has
    ``pins`` input pins, or None: the stuck value must be 0 or 1 and a
    pin must index the gate's fanins."""
    if fault.stuck not in (0, 1):
        problem = f"stuck value {fault.stuck!r} is not 0 or 1"
    elif fault.pin is not None and not 0 <= fault.pin < pins:
        problem = f"gate {fault.gate!r} has {pins} input pins"
    else:
        return None
    return f"fault {fault} does not fit netlist {netlist.name!r}: {problem}"


def full_fault_universe(netlist: GateNetlist) -> List[Fault]:
    """Enumerate the uncollapsed stuck-at universe of ``netlist``.

    Constants and OUTPUT markers get no stem faults (a stuck constant is
    undetectable by definition; the marker is an alias).  Input pins of
    OUTPUT markers are skipped too -- they are electrically the stem.
    """
    fanout = netlist.fanout_map()
    return [
        Fault(gate.name, pin, stuck)
        for gate in netlist.gates()
        for pin, stuck in gate_fault_sites(gate, fanout)
    ]


def gate_fault_sites(gate: Gate, fanout: Dict[str, List[str]]) -> List[Tuple[Optional[int], int]]:
    """The ``(pin, stuck)`` faults of one gate in the universe, in
    :meth:`Fault.sort_key` order: its stem faults, then a branch's pin
    faults wherever the driving net fans out to more than one reader."""
    sites: List[Tuple[Optional[int], int]] = []
    if gate.kind not in _NO_STEM_FAULT:
        sites += ((None, 0), (None, 1))
    if gate.kind is not GateKind.OUTPUT:
        for pin, source in enumerate(gate.fanins):
            if len(fanout[source]) > 1:
                sites += ((pin, 0), (pin, 1))
    return sites
