"""System 4: four independent pin-attached cores (scheduling stress case).

Every core connects straight to dedicated chip pins, so no test borrows
another core's transparency: all four tests could run at once.  That
makes System 4 the extreme case for the concurrent-session scheduler --
and the natural demonstration of the scan-power budget, which is then
the only thing forcing tests apart.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.designs.display import build_display
from repro.designs.gcd import build_gcd
from repro.designs.preprocessor import build_preprocessor
from repro.designs.x25 import build_x25
from repro.soc import Core, Soc

#: precomputed combinational vector counts: fixed inputs of every plan,
#: not regenerated (seed-0 ATPG on these cores gives other counts; see
#: ROADMAP item 1)
DEFAULT_VECTORS: Dict[str, int] = {
    "PREPROCESSOR": 34,
    "GCD": 43,
    "X25": 18,
    "DISPLAY": 19,
}


def build_system4(test_vectors: Optional[Dict[str, int]] = None) -> Soc:
    vectors = dict(DEFAULT_VECTORS)
    vectors.update(test_vectors or {})

    soc = Soc("System4")
    pre = Core.from_circuit(build_preprocessor(), test_vectors=vectors["PREPROCESSOR"])
    gcd = Core.from_circuit(build_gcd(), test_vectors=vectors["GCD"])
    x25 = Core.from_circuit(build_x25(), test_vectors=vectors["X25"])
    display = Core.from_circuit(build_display(), test_vectors=vectors["DISPLAY"])
    for core in (pre, gcd, x25, display):
        soc.add_core(core)

    # PREPROCESSOR
    soc.add_input("Video", 1)
    soc.add_input("NUM", 8)
    soc.add_input("ScanReset", 1)
    soc.add_output("DB", 8)
    soc.add_output("Address", 12)
    soc.add_output("Eoc", 1)
    soc.wire(None, "Video", "PREPROCESSOR", "Video")
    soc.wire(None, "NUM", "PREPROCESSOR", "NUM")
    soc.wire(None, "ScanReset", "PREPROCESSOR", "Reset")
    soc.wire("PREPROCESSOR", "DB", None, "DB")
    soc.wire("PREPROCESSOR", "Address", None, "Address")
    soc.wire("PREPROCESSOR", "Eoc", None, "Eoc")

    # GCD
    soc.add_input("Xin", 8)
    soc.add_input("Yin", 8)
    soc.add_input("Start", 1)
    soc.add_output("Result", 8)
    soc.add_output("Done", 1)
    soc.add_output("Phase", 1)
    soc.wire(None, "Xin", "GCD", "Xin")
    soc.wire(None, "Yin", "GCD", "Yin")
    soc.wire(None, "Start", "GCD", "Start")
    soc.wire("GCD", "Result", None, "Result")
    soc.wire("GCD", "Done", None, "Done")
    soc.wire("GCD", "Phase", None, "Phase")

    # X25
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

    # DISPLAY
    soc.add_input("DigitSel", 12)
    soc.add_input("DigitData", 8)
    for index in range(1, 7):
        soc.add_output(f"PORT{index}", 7)
    soc.wire(None, "DigitSel", "DISPLAY", "A")
    soc.wire(None, "DigitData", "DISPLAY", "D")
    for index in range(1, 7):
        soc.wire("DISPLAY", f"PORT{index}", None, f"PORT{index}")

    return soc.validate()
