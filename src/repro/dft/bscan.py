"""Boundary-scan overhead accounting (the BSCAN half of FSCAN-BSCAN).

In the baseline SOC test method each embedded core is isolated by a ring
of boundary-scan cells on its ports; test data is shifted through the
ring serially.  We account one boundary-scan cell (capture flop + update
stage + mux) per port bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gates.cells import BSCAN_CELL_AREA
from repro.rtl.circuit import RTLCircuit


@dataclass
class BscanResult:
    """Boundary-scan ring plan for one core."""

    core: str
    input_bits: int
    output_bits: int
    extra_area: int


def boundary_scan_overhead(circuit: RTLCircuit) -> BscanResult:
    """Cells needed to put a boundary-scan ring around ``circuit``."""
    input_bits = circuit.input_bit_count()
    output_bits = circuit.output_bit_count()
    return BscanResult(
        core=circuit.name,
        input_bits=input_bits,
        output_bits=output_bits,
        extra_area=BSCAN_CELL_AREA * (input_bits + output_bits),
    )
