"""System 1: the barcode-scanner SOC of Figure 2.

The PREPROCESSOR digitizes the scanned barcode and writes bar widths to
the RAM; the CPU converts them to a price using the program in the ROM;
the DISPLAY drives six seven-segment digits (the chip outputs).  The
memory cores are BIST-tested and therefore excluded from the CCG, so
the PREPROCESSOR's RAM-facing address bus is the paper's example of an
output observable only through a system-level test multiplexer.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.designs.cpu import build_cpu
from repro.designs.display import build_display
from repro.designs.memory_cores import build_ram, build_rom
from repro.designs.preprocessor import build_preprocessor
from repro.designs.registry import DEFAULT_VECTORS
from repro.soc import Core, Soc


def build_system1(test_vectors: Optional[Dict[str, int]] = None) -> Soc:
    """Assemble System 1.

    ``test_vectors`` overrides :data:`~repro.designs.registry.DEFAULT_VECTORS`
    entries: core name to precomputed vector count.
    """
    vectors = {**DEFAULT_VECTORS, **(test_vectors or {})}

    soc = Soc("System1")
    cpu = Core.from_circuit(build_cpu(), test_vectors=vectors["CPU"])
    pre = Core.from_circuit(build_preprocessor(), test_vectors=vectors["PREPROCESSOR"])
    display = Core.from_circuit(build_display(), test_vectors=vectors["DISPLAY"])
    ram = Core.from_circuit(build_ram(), test_vectors=0, is_memory=True)
    rom = Core.from_circuit(build_rom(), test_vectors=0, is_memory=True)
    for core in (cpu, pre, display, ram, rom):
        soc.add_core(core)

    # chip pins
    soc.add_input("Video", 1)
    soc.add_input("NUM", 8)
    soc.add_input("Reset", 1)
    for index in range(1, 7):
        soc.add_output(f"PORT{index}", 7)

    # PREPROCESSOR <- pins
    soc.wire(None, "Video", "PREPROCESSOR", "Video")
    soc.wire(None, "NUM", "PREPROCESSOR", "NUM")
    soc.wire(None, "Reset", "PREPROCESSOR", "Reset")

    # CPU <- PREPROCESSOR / pins
    soc.wire("PREPROCESSOR", "DB", "CPU", "Data")
    soc.wire(None, "Reset", "CPU", "Reset")
    soc.wire("PREPROCESSOR", "Eoc", "CPU", "Interrupt")

    # DISPLAY <- CPU / PREPROCESSOR
    soc.wire("CPU", "Address", "DISPLAY", "A")
    soc.wire("PREPROCESSOR", "DB", "DISPLAY", "D")

    # DISPLAY -> chip outputs
    for index in range(1, 7):
        soc.wire("DISPLAY", f"PORT{index}", None, f"PORT{index}")

    # memory subsystem (excluded from the CCG; BIST-tested)
    soc.wire("PREPROCESSOR", "Address", "RAM", "Address")
    soc.wire("CPU", "DataOut", "RAM", "DataIn")
    soc.wire("CPU", "Write", "RAM", "Write")
    soc.wire("CPU", "Read", "RAM", "Read")
    soc.wire("CPU", "Address", "ROM", "Address")
    soc.wire("CPU", "Read", "ROM", "Enable")

    return soc.validate()
