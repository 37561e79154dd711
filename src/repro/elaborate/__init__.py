"""RTL-to-gate elaboration.

:func:`~repro.elaborate.elaborate.elaborate` turns an
:class:`~repro.rtl.circuit.RTLCircuit` into a
:class:`~repro.gates.netlist.GateNetlist`: registers become D flip-flops
(with enable muxes), word muxes become per-bit MUX2 trees, and
operators expand into standard gate macros (ripple adders, comparators,
decoders, ...).  Bit ``i`` of RTL component ``C`` becomes the gate net
``C.i``, so higher layers (DFT insertion, ATPG, fault grading) can map
RTL structure onto gates and back.
"""

from repro.elaborate.elaborate import Elaborated, elaborate

__all__ = ["Elaborated", "elaborate"]
