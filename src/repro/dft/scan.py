"""Scan-architecture data model of HSCAN insertion.

A *scan unit* is a contiguous slice of a register that shifts as one
piece; HSCAN chains are sequences of units connected by *scan links*
(reused mux paths, direct connections, or added test muxes).  Costs are
the paper's accounting: two gates to force an existing mux path, one OR
gate for a direct path, and a per-bit mux when a test multiplexer must
be added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.rtl.types import Slice

#: cells to force the select of an existing mux path during scan
COST_MUX_PATH_LINK = 2
#: cells (one OR gate at the load/enable) for an existing direct path
COST_DIRECT_LINK = 1
#: cells per bit for an added test multiplexer (integrated scan mux)
COST_TEST_MUX_PER_BIT = 2
#: cells per bit to observe a chain tail through an existing mux path
COST_OBS_MUX = 2
#: cells charged for routing a chain tail to a new scan-out pin
COST_NEW_SCAN_OUT = 4


@dataclass(frozen=True, order=True)
class ScanUnit:
    """A register slice ``comp[lo : lo+width]`` shifting as one piece."""

    comp: str
    lo: int
    width: int

    @property
    def hi(self) -> int:
        return self.lo + self.width

    def as_slice(self) -> Slice:
        return Slice(self.comp, self.lo, self.width)

    def __str__(self) -> str:
        return str(self.as_slice())


@dataclass(frozen=True)
class ScanLink:
    """Scan-in connection of ``dest`` from ``source`` (a slice).

    ``kind`` is ``"mux"`` (existing mux path, select forced),
    ``"direct"`` (existing direct path), or ``"testmux"`` (added test
    multiplexer fed from a dedicated scan-in pin).
    """

    dest: ScanUnit
    source: Slice
    kind: str
    cost: int
    mux_path: Tuple[Tuple[str, int], ...] = ()

    def __str__(self) -> str:
        return f"{self.source} ={self.kind}=> {self.dest}"


@dataclass(frozen=True)
class ObservationLink:
    """How a chain tail reaches an output: existing path or new pin.

    ``output`` / ``output_lo`` locate the observing port slice; ``None``
    output means a new ``scan_out`` pin is created for the tail.
    """

    tail: ScanUnit
    output: Optional[str]
    output_lo: int
    kind: str  # "direct" | "mux" | "pin"
    cost: int
    mux_path: Tuple[Tuple[str, int], ...] = ()
