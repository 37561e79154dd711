"""Structural equivalence collapsing of stuck-at faults.

Classic gate-local rules (Abramovici et al., "Digital Systems Testing and
Testable Design", ch. 4):

* AND : any input sa0 == output sa0        NAND: any input sa0 == output sa1
* OR  : any input sa1 == output sa1        NOR : any input sa1 == output sa0
* NOT : input sa0 == output sa1, input sa1 == output sa0
* BUF : input sav == output sav

Pin faults that were never enumerated (single-fanout nets) are already
implicitly collapsed onto the driving stem by the universe builder.  Each
rule equates one pin fault with one stem fault of the same gate, so an
equivalence class is a stem fault plus the pin faults equal to it, and
its representative -- the member first in :meth:`Fault.sort_key` order --
is the stem fault.  Collapsing therefore keeps every fault except the pin
faults whose equivalent stem fault is present.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.faults.model import Fault, gate_fault_sites
from repro.gates.cells import GateKind
from repro.gates.netlist import Gate, GateNetlist
from repro.obs import profile_section

#: gate kind -> per pin stuck value (index 0, 1): the stuck value of the
#: stem fault equal to that pin fault, or None where none is
_STEM_OF_PIN: Dict[GateKind, Sequence[Optional[int]]] = {
    GateKind.AND: (0, None),
    GateKind.NAND: (1, None),
    GateKind.OR: (None, 1),
    GateKind.NOR: (None, 0),
    GateKind.NOT: (1, 0),
    # a buffer/flop/marker forwards its D pin: pin fault == stem fault
    GateKind.BUF: (0, 1),
    GateKind.OUTPUT: (0, 1),
    GateKind.DFF: (0, 1),
}


def collapse_faults(netlist: GateNetlist, faults: List[Fault]) -> List[Fault]:
    """Return one representative per structural equivalence class.

    Only faults present in ``faults`` participate; the representative is
    the lexicographically smallest member so results are deterministic.
    """
    present = {(f.gate, f.pin, f.stuck): f for f in faults}
    kept = []
    for (name, pin, stuck), fault in present.items():
        if pin is not None and name in netlist:
            stem = _stem_of_pin(netlist.gate(name), pin, stuck)
            if stem is not None and (name, None, stem) in present:
                continue
        kept.append(fault)
    return sorted(kept, key=Fault.sort_key)


def collapsed_fault_universe(netlist: GateNetlist) -> List[Fault]:
    """``collapse_faults(netlist, full_fault_universe(netlist))`` without
    building the uncollapsed list: gates in name order, each gate's faults
    in sort order, and a pin fault only where no stem fault equals it (a
    gate with pin faults always has its stem faults in the universe)."""
    with profile_section("faultsim.universe"):
        fanout = netlist.fanout_map()
        faults = []
        for name in sorted(netlist.names()):
            gate = netlist.gate(name)
            rule = _STEM_OF_PIN.get(gate.kind)
            for pin, stuck in gate_fault_sites(gate, fanout):
                if pin is None or rule is None or rule[stuck] is None:
                    faults.append(Fault(name, pin, stuck))
        return faults


def _stem_of_pin(gate: Gate, pin: int, stuck: int) -> Optional[int]:
    """Stuck value of the stem fault equal to ``gate``'s pin fault, if any."""
    rule = _STEM_OF_PIN.get(gate.kind)
    if rule is None or not 0 <= pin < len(gate.fanins) or stuck not in (0, 1):
        return None
    return rule[stuck]
