"""The barcode PREPROCESSOR core (paper Figures 2, 8a, 9).

Receives the scanner signal ``Video`` and the calibration bus ``NUM``,
filters the bar widths, and writes them to memory: a five-deep filter /
measurement pipeline feeds the data bus ``DB``, a 12-bit write-address
generator drives ``Address`` (which goes only to the RAM -- the paper's
example of an output needing a system-level test multiplexer), and an
end-of-conversion flag ``Eoc`` interrupts the CPU.

The pipeline depth gives Version 1 its NUM->DB latency of 5 and
NUM->Address latency of 2 (Figure 8a); a raw-bypass mux into the final
data register provides the existing edge Version 2 exploits (NUM->DB in
one cycle).
"""

from __future__ import annotations

from repro.rtl import CircuitBuilder, OpKind, RTLCircuit, Slice
from repro.rtl.types import Concat


def build_preprocessor() -> RTLCircuit:
    b = CircuitBuilder("PREPROCESSOR")

    # ------------------------------------------------------------------ ports
    video = b.input("Video", 1)
    num = b.input("NUM", 8)
    reset = b.input("Reset", 1)

    # ------------------------------------------------------------------ filter/measure pipeline (5 deep)
    filt0 = b.register("FILT0", 8)
    filt1 = b.register("FILT1", 8)
    width = b.register("WIDTH", 8)
    bar = b.register("BAR", 8)
    dbr = b.register("DBR", 8)

    vreg = b.register("VREG", 1)
    b.drive(vreg, video)

    # threshold calibration from NUM, or re-circulated measurement
    smooth = b.op("SMOOTH", OpKind.ADD, [Slice("FILT0", 0, 8), Slice("FILT1", 0, 8)])
    filt0_mux = b.mux("FILT0_MUX", [num, smooth], select=vreg)
    b.drive(filt0, filt0_mux)
    b.drive(filt1, filt0)

    count_inc = b.op("CNT_INC", OpKind.INC, [Slice("WIDTH", 0, 8)])
    width_mux = b.mux("WIDTH_MUX", [filt1, count_inc], select=vreg)
    b.drive(width, width_mux)

    over = b.op("OVER", OpKind.LT, [Slice("FILT1", 0, 8), Slice("WIDTH", 0, 8)])
    bar_mux = b.mux("BAR_MUX", [width, Slice("DBR", 0, 8)], select=over)
    b.drive(bar, bar_mux)

    # the data-bus register: measured bar width, or raw NUM (calibration
    # passthrough) -- the existing 1-cycle edge Version 2 reuses
    dbr_mux = b.mux("DBR_MUX", [bar, num], select=over)
    b.drive(dbr, dbr_mux)

    # ------------------------------------------------------------------ write-address generator
    # THR: calibration/base-address register loaded from NUM (its HSCAN
    # scan-in comes from a test mux, so Version 1 reaches the address
    # registers through the *existing* NUM -> THR path in two cycles)
    thr = b.register("THR", 8)
    thr_mux = b.mux("THR_MUX", [num, Slice("FILT1", 0, 8)], select=vreg)
    b.drive(thr, thr_mux)

    cnt = b.register("CNT", 8)  # address offset within the page
    pg = b.register("PG", 4)  # memory page
    addr_inc = b.op("ADDR_INC", OpKind.INC, [Slice("CNT", 0, 8)])
    cnt_mux = b.mux("CNT_MUX", [Slice("THR", 0, 8), addr_inc], select=vreg)
    b.drive(cnt, cnt_mux)
    pg_mux = b.mux("PG_MUX", [Slice("THR", 4, 4), Slice("PG", 0, 4)], select=vreg)
    b.drive(pg, pg_mux)

    # ------------------------------------------------------------------ end-of-conversion chain (Reset -> E0 -> E1 -> Eoc)
    e0 = b.register("E0", 1)
    e1 = b.register("E1", 1)
    done = b.op("DONE", OpKind.REDUCE_AND, [Slice("CNT", 0, 8)])
    e0_mux = b.mux("E0_MUX", [reset, done], select=vreg)
    b.drive(e0, e0_mux)
    e1_mux = b.mux("E1_MUX", [e0, Slice("VREG", 0, 1)], select=reset)
    b.drive(e1, e1_mux)

    # ------------------------------------------------------------------ outputs
    b.output("DB", Slice("DBR", 0, 8))
    b.output("Address", Concat((Slice("CNT", 0, 8), Slice("PG", 0, 4))))
    b.output("Eoc", Slice("E1", 0, 1))
    return b.build()
