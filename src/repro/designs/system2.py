"""System 2: graphics processor + GCD + X.25 protocol core.

The paper gives only the core list; the topology here chains them the
way the barcode system chains its cores -- the graphics processor's
pixel stream feeds the GCD unit (computing a step ratio), whose result
feeds the protocol core for transmission -- so that embedded cores must
again be tested through their neighbours' transparency.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.designs.gcd import build_gcd
from repro.designs.graphics import build_graphics
from repro.designs.x25 import build_x25
from repro.soc import Core, Soc


#: precomputed combinational vector counts: fixed inputs of every plan,
#: not regenerated (seed-0 ATPG on these cores gives other counts; see
#: ROADMAP item 1)
DEFAULT_VECTORS: Dict[str, int] = {
    "GRAPHICS": 27,
    "GCD": 43,
    "X25": 18,
}


def build_system2(test_vectors: Optional[Dict[str, int]] = None) -> Soc:
    vectors = dict(DEFAULT_VECTORS)
    vectors.update(test_vectors or {})

    soc = Soc("System2")
    graphics = Core.from_circuit(build_graphics(), test_vectors=vectors["GRAPHICS"])
    gcd = Core.from_circuit(build_gcd(), test_vectors=vectors["GCD"])
    x25 = Core.from_circuit(build_x25(), test_vectors=vectors["X25"])
    for core in (graphics, gcd, x25):
        soc.add_core(core)

    # only the protocol core's transmit interface reaches the chip pins:
    # everything else is deeply embedded (like the paper's systems, where
    # poor functional observability is the whole problem)
    soc.add_input("Cmd", 8)
    soc.add_input("Data", 8)
    soc.add_input("Go", 1)
    soc.add_input("Reset", 1)
    soc.add_output("TX", 8)
    soc.add_output("Ack", 1)

    # GRAPHICS <- pins
    soc.wire(None, "Cmd", "GRAPHICS", "Cmd")
    soc.wire(None, "Data", "GRAPHICS", "Data")
    soc.wire(None, "Go", "GRAPHICS", "Go")

    # GCD <- GRAPHICS
    soc.wire("GRAPHICS", "PX", "GCD", "Xin")
    soc.wire("GRAPHICS", "PY", "GCD", "Yin")
    soc.wire("GRAPHICS", "Valid", "GCD", "Start")

    # X25 <- GCD / pins
    soc.wire("GCD", "Result", "X25", "RX")
    soc.wire("GCD", "Done", "X25", "Frame")
    soc.wire(None, "Reset", "X25", "Reset")

    # chip outputs (X25.SeqOut and GRAPHICS.Pattern stay internal; the
    # planner must add system-level test muxes to observe them)
    soc.wire("X25", "TX", None, "TX")
    soc.wire("X25", "Ack", None, "Ack")

    return soc.validate()
