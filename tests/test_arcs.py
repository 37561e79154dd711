"""Tests for lossless transfer-arc extraction."""

from repro.rtl import CircuitBuilder, OpKind, Slice
from repro.rtl.arcs import extract_arcs
from repro.rtl.types import Concat


def arcs_by_dest(arcs):
    """Group arcs by destination component name."""
    grouped = {}
    for arc in arcs:
        grouped.setdefault(arc.dest, []).append(arc)
    return grouped


def build_example():
    """DIN -> R1 (direct); R1/DIN -> R2 (mux); R2+op -> R3 (lossy); R2 -> OUT."""
    b = CircuitBuilder("ex")
    din = b.input("DIN", 8)
    sel = b.input("SEL", 1)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    r3 = b.register("R3", 8)
    b.drive(r1, din)
    m = b.mux("M0", [r1, din], select=sel)
    b.drive(r2, m)
    added = b.op("ADD", OpKind.ADD, [r2, r1])
    b.drive(r3, added)
    b.output("OUT", r2)
    return b.build()


class TestExtractArcs:
    def test_direct_arc(self):
        arcs = arcs_by_dest(extract_arcs(build_example()))
        r1_arcs = arcs["R1"]
        assert len(r1_arcs) == 1
        assert r1_arcs[0].is_direct
        assert r1_arcs[0].source == Slice("DIN", 0, 8)

    def test_mux_arcs(self):
        arcs = arcs_by_dest(extract_arcs(build_example()))
        r2_arcs = arcs["R2"]
        assert len(r2_arcs) == 2
        sources = {a.source.comp for a in r2_arcs}
        assert sources == {"R1", "DIN"}
        assert all(a.mux_path == (("M0", i),) for i, a in enumerate(r2_arcs)) or all(
            len(a.mux_path) == 1 for a in r2_arcs
        )

    def test_operator_blocks_arcs(self):
        arcs = arcs_by_dest(extract_arcs(build_example()))
        assert "R3" not in arcs

    def test_output_arc_flagged(self):
        arcs = arcs_by_dest(extract_arcs(build_example()))
        out_arcs = arcs["OUT"]
        assert len(out_arcs) == 1
        assert out_arcs[0].dest_is_output
        assert out_arcs[0].source.comp == "R2"

    def test_concat_split_arcs(self):
        b = CircuitBuilder("split")
        a = b.input("A", 4)
        c = b.input("C", 4)
        r = b.register("R", 8)
        b.drive(r, Concat((a, c)))
        b.output("O", r)
        arcs = arcs_by_dest(extract_arcs(b.build()))["R"]
        assert len(arcs) == 2
        low = next(x for x in arcs if x.dest_lo == 0)
        high = next(x for x in arcs if x.dest_lo == 4)
        assert low.source.comp == "A" and high.source.comp == "C"

    def test_nested_mux_paths(self):
        b = CircuitBuilder("nest")
        a = b.input("A", 4)
        c = b.input("C", 4)
        d = b.input("D", 4)
        s0 = b.input("S0", 1)
        s1 = b.input("S1", 1)
        inner = b.mux("MI", [a, c], select=s0)
        outer = b.mux("MO", [inner, d], select=s1)
        r = b.register("R", 4)
        b.drive(r, outer)
        b.output("O", r)
        arcs = arcs_by_dest(extract_arcs(b.build()))["R"]
        assert len(arcs) == 3
        deep = [x for x in arcs if len(x.mux_path) == 2]
        assert len(deep) == 2  # A and C go through both muxes

    def test_arcs_by_source(self):
        arcs = extract_arcs(build_example())
        assert {a.dest for a in arcs if a.source.comp == "DIN"} == {"R1", "R2"}
