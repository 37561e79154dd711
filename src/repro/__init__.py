"""SOCET: transparency-based testing of core-based systems-on-chip.

A complete reproduction of Ghosh, Dey & Jha, "A Fast and Low Cost
Testing Technique for Core-based System-on-Chip" (DAC 1998), with every
substrate -- RTL modelling, elaboration, fault simulation, ATPG, scan
insertion, transparency synthesis, chip-level planning -- implemented
from scratch.  See DESIGN.md for the architecture and EXPERIMENTS.md
for the reproduced tables and figures.

The package itself imports nothing, so a command loads only the layers
it runs; the subpackages hold the library (``repro.rtl``,
``repro.gates``, ``repro.elaborate``, ``repro.faults``, ``repro.atpg``,
``repro.dft``, ``repro.transparency``, ``repro.soc``,
``repro.baselines``, ``repro.bist``, ``repro.designs``,
``repro.flow``).
"""

__version__ = "1.0.0"
