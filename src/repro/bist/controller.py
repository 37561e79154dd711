"""Memory-BIST planning: which March test, how long, what area.

The BIST controller (address counter + data-background generator +
comparator + small FSM) runs concurrently with the logic-core testing,
so its cycles are reported separately from the SOC's transparency TAT,
exactly as the paper separates memory cores from the CCG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bist.march import MARCH_C_MINUS
from repro.soc.system import Soc

#: cells for the shared BIST controller (counter, background gen, compare)
BIST_CONTROLLER_CELLS = 120
#: per-memory wrapper cells (address/data muxes into the array)
BIST_WRAPPER_CELLS_PER_BIT = 2


@dataclass
class MemoryBistRow:
    core: str
    words: int
    width: int
    march: str
    cycles: int
    wrapper_cells: int


@dataclass
class MemoryBistPlan:
    soc: str
    rows: List[MemoryBistRow]
    controller_cells: int = BIST_CONTROLLER_CELLS

    @property
    def total_cycles(self) -> int:
        return sum(row.cycles for row in self.rows)

    @property
    def total_cells(self) -> int:
        if not self.rows:
            return 0
        return self.controller_cells + sum(row.wrapper_cells for row in self.rows)


#: memory geometries of the example cores (4KB space, byte-wide)
_DEFAULT_GEOMETRY = {"RAM": (4096, 8), "ROM": (4096, 8)}


def plan_memory_bist(soc: Soc) -> MemoryBistPlan:
    """Plan March C- BIST for every memory core of ``soc``."""
    rows = []
    for core in soc.cores.values():
        if not core.is_memory:
            continue
        words, width = _DEFAULT_GEOMETRY.get(core.name, (1024, 8))
        address_bits = max(1, (words - 1).bit_length())
        wrapper = BIST_WRAPPER_CELLS_PER_BIT * (address_bits + 2 * width)
        rows.append(
            MemoryBistRow(
                core=core.name,
                words=words,
                width=width,
                march=MARCH_C_MINUS.name,
                cycles=MARCH_C_MINUS.cycle_count(words),
                wrapper_cells=wrapper,
            )
        )
    return MemoryBistPlan(soc=soc.name, rows=rows)
