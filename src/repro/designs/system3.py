"""System 3: a dual-pipe SOC built to exercise concurrent test sessions.

The paper's two systems are single chains, so every core's test borrows
its neighbours' transparency and the tests serialize.  System 3 has
three independent subsystems on one chip -- a GRAPHICS->GCD pipe, a
standalone X.25 link, and a standalone DISPLAY -- each with dedicated
pins, the topology (common in practice) where a concurrent-session
scheduler beats the serial test order.
"""

from __future__ import annotations

from repro.designs.display import build_display
from repro.designs.gcd import build_gcd
from repro.designs.graphics import build_graphics
from repro.designs.x25 import build_x25
from repro.designs.registry import DEFAULT_VECTORS
from repro.soc import Core, Soc


def build_system3() -> Soc:
    soc = Soc("System3")
    graphics = Core.from_circuit(build_graphics(), test_vectors=DEFAULT_VECTORS["GRAPHICS"])
    gcd = Core.from_circuit(build_gcd(), test_vectors=DEFAULT_VECTORS["GCD"])
    x25 = Core.from_circuit(build_x25(), test_vectors=DEFAULT_VECTORS["X25"])
    display = Core.from_circuit(build_display(), test_vectors=DEFAULT_VECTORS["DISPLAY"])
    for core in (graphics, gcd, x25, display):
        soc.add_core(core)

    # pipe A: pins -> GRAPHICS -> GCD -> pins
    soc.add_input("Cmd", 8)
    soc.add_input("Data", 8)
    soc.add_input("Go", 1)
    soc.add_output("Ratio", 8)
    soc.add_output("RDone", 1)
    soc.add_output("Pattern", 8)
    soc.wire(None, "Cmd", "GRAPHICS", "Cmd")
    soc.wire(None, "Data", "GRAPHICS", "Data")
    soc.wire(None, "Go", "GRAPHICS", "Go")
    soc.wire("GRAPHICS", "PX", "GCD", "Xin")
    soc.wire("GRAPHICS", "PY", "GCD", "Yin")
    soc.wire("GRAPHICS", "Valid", "GCD", "Start")
    soc.wire("GRAPHICS", "Pattern", None, "Pattern")
    soc.wire("GCD", "Result", None, "Ratio")
    soc.wire("GCD", "Done", None, "RDone")
    # GCD.Phase stays internal: the planner adds a test mux

    # pipe B: the X.25 link, entirely pin-attached
    soc.add_input("RX", 8)
    soc.add_input("Frame", 1)
    soc.add_input("LinkReset", 1)
    soc.add_output("TX", 8)
    soc.add_output("Ack", 1)
    soc.add_output("Seq", 8)
    soc.wire(None, "RX", "X25", "RX")
    soc.wire(None, "Frame", "X25", "Frame")
    soc.wire(None, "LinkReset", "X25", "Reset")
    soc.wire("X25", "TX", None, "TX")
    soc.wire("X25", "Ack", None, "Ack")
    soc.wire("X25", "SeqOut", None, "Seq")

    # pipe C: the DISPLAY, driven straight from pins
    soc.add_input("DigitSel", 12)
    soc.add_input("DigitData", 8)
    for index in range(1, 7):
        soc.add_output(f"PORT{index}", 7)
    soc.wire(None, "DigitSel", "DISPLAY", "A")
    soc.wire(None, "DigitData", "DISPLAY", "D")
    for index in range(1, 7):
        soc.wire("DISPLAY", f"PORT{index}", None, f"PORT{index}")

    return soc.validate()
