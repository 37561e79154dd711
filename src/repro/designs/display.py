"""The barcode DISPLAY core (paper Figures 2, 8b).

Converts the CPU's binary-coded-decimal price into six seven-segment
display codes.  66 flip-flops / 20 internal input bits, matching the
paper's accounting for the FSCAN-BSCAN comparison:

* ``AD`` (12) latched address bus, ``DREG`` (8) latched data bus,
  ``BCD`` (4) digit register, ``P1``..``P6`` (7 each) port registers:
  12 + 8 + 4 + 42 = 66 flip-flops;
* inputs ``A`` (12) + ``D`` (8) = 20 internal input bits.

The register topology is arranged so the generic algorithms reproduce
Figure 8b's Version 1 latencies -- D->OUT = 2 (data latch straight into
ports P1/P2) and A->OUT = 3 (the low address nibble detours through the
BCD digit register, the high bits through the P2->P3 refresh chain) --
and the longest HSCAN chain is 4 deep (the paper's "sequential depth of
the longest HSCAN chain is 4", giving 105 x 5 = 525 HSCAN vectors).
"""

from __future__ import annotations

from repro.rtl import CircuitBuilder, OpKind, RTLCircuit, Slice
from repro.rtl.types import Concat


def build_display() -> RTLCircuit:
    b = CircuitBuilder("DISPLAY")

    # ------------------------------------------------------------------ ports
    a = b.input("A", 12)
    d = b.input("D", 8)

    # ------------------------------------------------------------------ bus latches
    ad = b.register("AD", 12)
    dreg = b.register("DREG", 8)
    b.drive(ad, a)
    b.drive(dreg, d)

    # write decode (random logic exercising the address)
    port_sel = b.op("PORT_SEL", OpKind.DECODE, [Slice("AD", 8, 3)])
    write_en = b.op("WR_EN", OpKind.REDUCE_OR, [Slice("AD", 0, 4)])
    spare_sel = b.op("SPARE_SEL", OpKind.REDUCE_OR, [port_sel.sub(6, 2)])

    # BCD digit register: captured from the latched address low nibble
    bcd = b.register("BCD", 4)
    digit_next = b.op("DIGIT_NEXT", OpKind.INC, [Slice("BCD", 0, 4)])
    bcd_enable = b.op("BCD_EN", OpKind.NOT, [spare_sel])
    bcd_mux = b.mux("BCD_MUX", [Slice("AD", 0, 4), digit_next], select=write_en)
    b.drive(bcd, bcd_mux, enable=bcd_enable)

    # seven-segment decode of the BCD digit (random logic, 7 wide)
    seg_dec = b.op("SEG_DEC", OpKind.DECODE, [Slice("BCD", 0, 3)])
    seg = Slice("SEG_DEC", 0, 7)

    # ------------------------------------------------------------------ port registers
    port_index = [0]

    def port(name: str, refresh) -> Slice:
        reg = b.register(name, 7)
        mux = b.mux(f"{name}_MUX", [seg, refresh], select=Slice("BCD", 3, 1))
        # a port loads when its address is decoded or during refresh
        enable = b.op(
            f"{name}_EN", OpKind.OR, [port_sel.sub(port_index[0], 1), Slice("BCD", 3, 1)]
        )
        port_index[0] += 1
        b.drive(reg, mux, enable=enable)
        return reg

    # refresh/copy paths partition the latched buses without overlap:
    #   DREG[6:0] -> P1, DREG[7] + AD[9:4] -> P2, AD[11:10] + P2 -> P3,
    #   BCD + P1[2:0] -> P4, P4 -> P5, P3 -> P6
    p1 = port("P1", Slice("DREG", 0, 7))
    p2 = port("P2", Concat((Slice("DREG", 7, 1), Slice("AD", 4, 6))))
    p3 = port("P3", Concat((Slice("AD", 10, 2), Slice("P2", 0, 5))))
    p4 = port("P4", Concat((Slice("BCD", 0, 4), Slice("P1", 0, 3))))
    p5 = port("P5", Slice("P4", 0, 7))
    p6 = port("P6", Slice("P3", 0, 7))

    # ------------------------------------------------------------------ outputs
    for index, reg in enumerate([p1, p2, p3, p4, p5, p6], start=1):
        b.output(f"PORT{index}", reg)
    return b.build()
