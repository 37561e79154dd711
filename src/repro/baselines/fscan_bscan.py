"""The FSCAN-BSCAN baseline SOC test method, priced in one module.

Every core is full-scanned and isolated by a boundary-scan ring; a
core's flip-flops plus the boundary cells on its (internal) inputs form
one serial chain, so testing it costs ``L*V + L - 1`` cycles with
``L = ff + input_bits`` (shift-in overlapped with shift-out, plus the
final flush): the paper's (66+20) x 105 + 85 = 9,115 cycles for the
DISPLAY.  Cores are tested one after another.  This is the method the
paper's Tables 2 and 3 compare SOCET against.

The baseline is priced, not built: full scan swaps every flip-flop for
a scan flip-flop (:data:`FSCAN_PER_FF` cells each), and the ring puts
one boundary-scan cell (capture flop, update stage and mux) on every
port bit of the core, inputs and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.gates.cells import BSCAN_CELL_AREA
from repro.soc.system import Soc

#: per-flip-flop cells for full scan (DFF -> scan-FF mux)
FSCAN_PER_FF = 2


def fscan_bscan_core_tat(ff_count: int, internal_input_bits: int, vectors: int) -> int:
    """Cycles to test one core in the FSCAN-BSCAN scheme."""
    chain_length = ff_count + internal_input_bits
    if vectors == 0 or chain_length == 0:
        return 0
    return chain_length * vectors + chain_length - 1


@dataclass
class FscanBscanCoreRow:
    core: str
    flip_flops: int
    internal_input_bits: int
    vectors: int
    chain_length: int
    tat: int
    fscan_cells: int
    bscan_cells: int


@dataclass
class FscanBscanReport:
    """Area and test-time accounting for the baseline on one SOC."""

    soc: str
    rows: List[FscanBscanCoreRow] = field(default_factory=list)

    @property
    def total_tat(self) -> int:
        return sum(row.tat for row in self.rows)

    @property
    def fscan_cells(self) -> int:
        return sum(row.fscan_cells for row in self.rows)

    @property
    def bscan_cells(self) -> int:
        return sum(row.bscan_cells for row in self.rows)

    @property
    def total_cells(self) -> int:
        return self.fscan_cells + self.bscan_cells


def fscan_bscan_report(soc: Soc) -> FscanBscanReport:
    """Evaluate the FSCAN-BSCAN baseline on ``soc`` (memories excluded)."""
    report = FscanBscanReport(soc=soc.name)
    for core in soc.testable_cores():
        flip_flops = core.flip_flops
        input_bits = core.input_bits
        chain = flip_flops + input_bits
        report.rows.append(
            FscanBscanCoreRow(
                core=core.name,
                flip_flops=flip_flops,
                internal_input_bits=input_bits,
                vectors=core.test_vectors,
                chain_length=chain,
                tat=fscan_bscan_core_tat(flip_flops, input_bits, core.test_vectors),
                fscan_cells=FSCAN_PER_FF * flip_flops,
                bscan_cells=BSCAN_CELL_AREA * (input_bits + core.circuit.output_bit_count()),
            )
        )
    return report
