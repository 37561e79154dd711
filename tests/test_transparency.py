"""Tests for the RCG, transparency search, and version generation."""

import pytest

from repro.dft import insert_hscan
from repro.rtl import CircuitBuilder, OpKind, Slice
from repro.rtl.types import Concat
from repro.transparency import RCG, TransparencySearch, generate_versions


def chain_core():
    """DIN -> R1 -> R2 -> DOUT plus a bypass mux DIN -> R2."""
    b = CircuitBuilder("chain")
    din = b.input("DIN", 8)
    sel = b.input("SEL", 1)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    b.drive(r1, din)
    m = b.mux("M0", [r1, din], select=sel)
    b.drive(r2, m)
    b.output("DOUT", r2)
    return b.build()


def split_core():
    """C-split register: R[7:4] <- A, R[3:0] <- S <- A ; R -> OUT.

    Justifying OUT requires both halves; the A-half arrives one cycle
    before the S-half, so A's data must be frozen one cycle.
    """
    b = CircuitBuilder("split")
    a = b.input("A", 8)
    s = b.register("S", 4)
    r = b.register("R", 8)
    b.drive(s, a.sub(0, 4))
    b.drive(r, Concat((Slice("S", 0, 4), a.sub(4, 4))))
    b.output("OUT", r)
    return b.build()


class TestRCG:
    def test_nodes_and_kinds(self):
        rcg = RCG.from_circuit(chain_core())
        assert rcg.nodes["DIN"].kind == "input"
        assert rcg.nodes["R1"].kind == "register"
        assert rcg.nodes["DOUT"].kind == "output"

    def test_c_split_detection(self):
        rcg = RCG.from_circuit(split_core())
        assert rcg.nodes["R"].c_split
        assert not rcg.nodes["S"].c_split

    def test_o_split_detection(self):
        b = CircuitBuilder("osplit")
        a = b.input("A", 8)
        r = b.register("R", 8)
        lo = b.register("LO", 4)
        hi = b.register("HI", 4)
        b.drive(r, a)
        b.drive(lo, Slice("R", 0, 4))
        b.drive(hi, Slice("R", 4, 4))
        b.output("O1", lo)
        b.output("O2", hi)
        rcg = RCG.from_circuit(b.build())
        assert rcg.nodes["R"].o_split

    def test_hscan_edges_flagged(self):
        circuit = chain_core()
        plan = insert_hscan(circuit)
        rcg = RCG.from_circuit(circuit, plan)
        hscan_arcs = [a for a in rcg.arcs if a.hscan]
        assert hscan_arcs  # the chain links are HSCAN edges

    def test_output_slices_split_by_sources(self):
        b = CircuitBuilder("outsplit")
        a = b.input("A", 8)
        lo = b.register("LO", 4)
        hi = b.register("HI", 4)
        b.drive(lo, a.sub(0, 4))
        b.drive(hi, a.sub(4, 4))
        b.output("ADDR", Concat((Slice("LO", 0, 4), Slice("HI", 0, 4))))
        rcg = RCG.from_circuit(b.build())
        slices = rcg.output_slices("ADDR")
        assert [(s.lo, s.width) for s in slices] == [(0, 4), (4, 4)]


class TestSearch:
    def test_justify_simple_chain(self):
        rcg = RCG.from_circuit(chain_core())
        search = TransparencySearch(rcg)
        path = search.justify(Slice("DOUT", 0, 8))
        assert path is not None
        # best path: DIN -> R2 (bypass mux) -> DOUT = 1 cycle
        assert path.latency == 1
        assert path.terminal_ports == ["DIN"]

    def test_justify_through_two_registers(self):
        # remove the bypass by searching HSCAN-only on a plan that picked DIN->R1->R2
        circuit = chain_core()
        plan = insert_hscan(circuit)
        rcg = RCG.from_circuit(circuit, plan)
        search = TransparencySearch(rcg, hscan_only=True)
        path = search.justify(Slice("DOUT", 0, 8))
        assert path is not None
        assert path.latency in (1, 2)

    def test_propagate_reaches_output(self):
        rcg = RCG.from_circuit(chain_core())
        path = TransparencySearch(rcg).propagate(Slice("DIN", 0, 8))
        assert path is not None
        assert path.latency == 1  # DIN -> R2 (mux) -> DOUT
        assert {t.comp for t in path.terminals} == {"DOUT"}

    def test_c_split_justification_balances_with_freeze(self):
        rcg = RCG.from_circuit(split_core())
        path = TransparencySearch(rcg).justify(Slice("OUT", 0, 8))
        assert path is not None
        # A -> S (1) -> R (2) for the low half; A -> R (1) for the high half;
        # total = 2 with the high half frozen... the data of the direct branch
        # waits in A (an input; no freeze cells) -- the *register* branch is
        # longer so no register freeze is charged here.
        assert path.latency == 2

    def test_freeze_recorded_when_register_branch_early(self):
        # S (register) branch shorter than a two-register branch
        b = CircuitBuilder("freezy")
        a = b.input("A", 8)
        s = b.register("S", 4)  # A[3:0] -> S (1 cycle to R's fanin)
        t1 = b.register("T1", 4)
        t2 = b.register("T2", 4)  # A[7:4] -> T1 -> T2 (2 cycles)
        r = b.register("R", 8)
        b.drive(s, a.sub(0, 4))
        b.drive(t1, a.sub(4, 4))
        b.drive(t2, t1)
        b.drive(r, Concat((Slice("S", 0, 4), Slice("T2", 0, 4))))
        b.output("OUT", r)
        rcg = RCG.from_circuit(b.build())
        path = TransparencySearch(rcg).justify(Slice("OUT", 0, 8))
        assert path is not None
        assert path.latency == 3
        assert ("S", 1) in path.freezes

    def test_unreachable_output_returns_none(self):
        b = CircuitBuilder("blocked")
        a = b.input("A", 4)
        r1 = b.register("R1", 4)
        r2 = b.register("R2", 4)
        b.drive(r1, a)
        added = b.op("ADD", OpKind.ADD, [r1, a])
        b.drive(r2, added)
        b.output("OUT", r2)
        rcg = RCG.from_circuit(b.build())
        assert TransparencySearch(rcg).justify(Slice("OUT", 0, 4)) is None

    def test_hscan_only_restriction(self):
        circuit = chain_core()
        rcg = RCG.from_circuit(circuit)  # no plan: nothing flagged hscan
        search = TransparencySearch(rcg, hscan_only=True)
        assert search.justify(Slice("DOUT", 0, 8)) is None


class TestVersions:
    def test_versions_ordered_by_cost(self):
        versions = generate_versions(chain_core())
        costs = [v.extra_cells for v in versions]
        assert costs == sorted(costs)

    def test_version_names_sequential(self):
        versions = generate_versions(chain_core())
        assert [v.name for v in versions] == [f"Version {i+1}" for i in range(len(versions))]

    def test_edges_present_for_all_ports(self):
        versions = generate_versions(chain_core())
        v1 = versions[0]
        outputs = {output for output, _, _ in v1.justify_paths}
        assert "DOUT" in outputs
        assert "DIN" in v1.propagate_paths
        assert "DIN" in v1.justify_paths[("DOUT", 0, 8)].terminal_ports

    def test_latency_improves_across_versions(self):
        """A 3-register pipeline has V1 latency 3, improvable to 1 by a mux."""
        b = CircuitBuilder("deep")
        din = b.input("DIN", 8)
        r1 = b.register("R1", 8)
        r2 = b.register("R2", 8)
        r3 = b.register("R3", 8)
        b.drive(r1, din)
        b.drive(r2, r1)
        b.drive(r3, r2)
        b.output("DOUT", r3)
        versions = generate_versions(b.build())
        first, last = versions[0], versions[-1]
        assert first.justify_latency("DOUT") == 3
        assert last.justify_latency("DOUT") == 1
        assert last.extra_cells > first.extra_cells

    def test_unmakeable_transparency_raises(self):
        from repro.errors import TransparencyError

        b = CircuitBuilder("hopeless")
        a = b.input("A", 4)
        wide = b.register("W", 8)  # wider than any input: fallback mux impossible
        r = b.register("R", 4)
        b.drive(r, a)
        added = b.op("X", OpKind.XOR, [Slice("W", 0, 4), Slice("W", 4, 4)])
        b.drive(wide, Concat((Slice("X", 0, 4), added)))
        b.output("OUT", Slice("W", 0, 8))
        with pytest.raises(TransparencyError):
            generate_versions(b.build())

    def test_combined_latency_sums_shared_resources(self):
        """Two outputs justified from the same input must transfer serially."""
        b = CircuitBuilder("shared")
        din = b.input("DIN", 4)
        r1 = b.register("R1", 4)
        r2 = b.register("R2", 4)
        b.drive(r1, din)
        b.drive(r2, din)
        b.output("O1", r1)
        b.output("O2", r2)
        versions = generate_versions(b.build())
        v = versions[0]
        combined = v.combined_justify_latency([("O1", 0, 4), ("O2", 0, 4)])
        assert combined == 2  # 1 + 1: both paths start at DIN
