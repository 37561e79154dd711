"""Primitive cell kinds and the area model.

The paper reports area as "number of cells" after technology mapping with
a 0.8um library and an in-house synthesis tool.  We cannot reproduce that
mapper; instead we use a fixed generic library in which each primitive has
an area in *cell units* roughly proportional to its transistor count in a
standard-cell library (a D flip-flop is about five 2-input-NAND
equivalents, an XOR about two, a scan flip-flop a DFF plus a mux).
Relative overheads -- which is what the paper's comparisons rest on --
are therefore preserved even though absolute counts differ.
"""

from __future__ import annotations

import enum
from typing import Dict


class GateKind(enum.Enum):
    """Primitive gate/cell kinds of the gate-level netlist."""

    INPUT = "input"  # primary input (no fanin)
    OUTPUT = "output"  # primary output marker (one fanin, zero area)
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"  # 2+ fanins
    OR = "or"  # 2+ fanins
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"  # exactly 2 fanins
    XNOR = "xnor"
    MUX2 = "mux2"  # fanins (d0, d1, select)
    DFF = "dff"  # fanins (d,); state element


#: State-element kinds (flip-flops) -- break combinational cycles.
STATE_KINDS = (GateKind.DFF,)

#: Kinds whose value is a *source* to combinational evaluation: primary
#: inputs, constants, and flip-flop outputs (pseudo-primary inputs in
#: the combinational view).  Shared by the levelizer, both simulators,
#: and the compiled kernels -- one definition, one ordering.
SOURCE_KINDS = (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1) + STATE_KINDS

#: Area in cell units for each kind (multi-input gates add per extra pin).
CELL_AREA: Dict[GateKind, int] = {
    GateKind.INPUT: 0,
    GateKind.OUTPUT: 0,
    GateKind.CONST0: 0,
    GateKind.CONST1: 0,
    GateKind.BUF: 1,
    GateKind.NOT: 1,
    GateKind.AND: 1,
    GateKind.OR: 1,
    GateKind.NAND: 1,
    GateKind.NOR: 1,
    GateKind.XOR: 2,
    GateKind.XNOR: 2,
    GateKind.MUX2: 2,
    GateKind.DFF: 5,
}

#: Extra area per fanin beyond the second for the simple n-input gates.
EXTRA_PIN_AREA = 1

_WIDE_GATES = {GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR}


def gate_area(kind: GateKind, fanin_count: int) -> int:
    """Area in cell units of one gate instance."""
    base = CELL_AREA[kind]
    if kind in _WIDE_GATES and fanin_count > 2:
        # A wide gate is mapped as a tree of 2-input cells.
        return base + (fanin_count - 2) * EXTRA_PIN_AREA
    return base


#: Area of one boundary-scan cell (capture FF + update latch + output mux).
BSCAN_CELL_AREA = 8
