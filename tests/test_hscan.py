"""Tests for HSCAN insertion: chain construction, costs, and applied RTL."""

from repro.dft import apply_hscan, insert_hscan
from repro.dft.scan import COST_DIRECT_LINK, COST_MUX_PATH_LINK, ScanUnit
from repro.elaborate import elaborate
from repro.gates import SequentialSimulator
from repro.rtl import CircuitBuilder
from repro.rtl.types import Concat

from tests.bits import int_to_bits


def link_for(plan, unit):
    """The scan link that loads ``unit``."""
    return next(link for link in plan.links if link.dest == unit)


def pipeline_circuit():
    """DIN -> R1 -> R2 -> R3 -> DOUT: a natural 3-deep chain, zero test muxes."""
    b = CircuitBuilder("pipe3")
    din = b.input("DIN", 8)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    r3 = b.register("R3", 8)
    b.drive(r1, din)
    b.drive(r2, r1)
    b.drive(r3, r2)
    b.output("DOUT", r3)
    return b.build()


def mux_path_circuit():
    """R2 loads from R1 through an existing mux -> link reuses it for 2 cells."""
    b = CircuitBuilder("muxy")
    din = b.input("DIN", 8)
    sel = b.input("SEL", 1)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    b.drive(r1, din)
    m = b.mux("M0", [din, r1], select=sel)
    b.drive(r2, m)
    b.output("DOUT", r2)
    return b.build()


def isolated_register_circuit():
    """R2 has no lossless path in -> needs a test mux and scan-in pin."""
    from repro.rtl import OpKind

    b = CircuitBuilder("iso")
    din = b.input("DIN", 8)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    b.drive(r1, din)
    added = b.op("ADD", OpKind.ADD, [r1, din])
    b.drive(r2, added)
    b.output("DOUT", r2)
    return b.build()


class TestInsertHscan:
    def test_pipeline_single_chain(self):
        plan = insert_hscan(pipeline_circuit())
        assert plan.depth == 3
        assert plan.scan_in_width == 0
        assert all(link.kind == "direct" for link in plan.links)
        assert plan.extra_area == 3 * COST_DIRECT_LINK  # 3 direct links, tail visible at DOUT

    def test_pipeline_chain_order(self):
        plan = insert_hscan(pipeline_circuit())
        assert len(plan.chains) == 1
        assert [u.comp for u in plan.chains[0]] == ["R1", "R2", "R3"]

    def test_mux_path_reuse(self):
        plan = insert_hscan(mux_path_circuit())
        r2_link = link_for(plan, ScanUnit("R2", 0, 8))
        assert r2_link.kind == "mux"
        assert r2_link.cost == COST_MUX_PATH_LINK
        assert r2_link.source.comp == "R1"

    def test_isolated_register_gets_test_mux(self):
        plan = insert_hscan(isolated_register_circuit())
        r2_link = link_for(plan, ScanUnit("R2", 0, 8))
        assert r2_link.kind == "testmux"
        assert plan.scan_in_width == 8

    def test_every_register_bit_covered(self):
        for circuit in (pipeline_circuit(), mux_path_circuit(), isolated_register_circuit()):
            plan = insert_hscan(circuit)
            for register in circuit.registers:
                covered = sorted(
                    (l.dest.lo, l.dest.hi) for l in plan.links if l.dest.comp == register.name
                )
                cursor = 0
                for lo, hi in covered:
                    assert lo == cursor
                    cursor = hi
                assert cursor == register.width

    def test_split_register_two_units(self):
        b = CircuitBuilder("split")
        a = b.input("A", 4)
        c = b.input("C", 4)
        r = b.register("R", 8)
        b.drive(r, Concat((a, c)))
        b.output("O", r)
        plan = insert_hscan(b.build())
        r_units = [u for u in plan.units if u.comp == "R"]
        assert len(r_units) == 2

    def test_self_loop_register_avoided(self):
        """A register whose only path is from itself must get a test mux."""
        b = CircuitBuilder("self")
        din = b.input("DIN", 1)
        sel = b.input("SEL", 1)
        r = b.register("R", 8)
        m = b.mux("M", [r, r], select=sel)
        b.drive(r, m)
        b.output("O", r)
        # give validity: R only reachable from itself
        plan = insert_hscan(b.build())
        link = link_for(plan, ScanUnit("R", 0, 8))
        assert link.kind == "testmux"


class TestApplyHscan:
    def test_scan_shift_works_end_to_end(self):
        circuit = pipeline_circuit()
        modified, plan = apply_hscan(circuit)
        elab = elaborate(modified)
        sim = SequentialSimulator(elab.netlist)

        def step(din, scan_en):
            words = {"scan_en.0": scan_en}
            for i, bit in enumerate(int_to_bits(din, 8)):
                words[f"DIN.{i}"] = bit
            return sim.step(words)

        # shift three values in scan mode: they march down the chain
        step(0xAB, 1)
        step(0xCD, 1)
        out = step(0xEF, 1)
        # after 3 shifts, R3 holds the first value, visible at DOUT next cycle
        final = step(0, 1)
        value = sum((final[f"DOUT.{i}"] & 1) << i for i in range(8))
        assert value == 0xAB

    def test_functional_mode_unchanged(self):
        circuit = pipeline_circuit()
        modified, _ = apply_hscan(circuit)
        elab = elaborate(modified)
        sim = SequentialSimulator(elab.netlist)
        words = {"scan_en.0": 0}
        for i, bit in enumerate(int_to_bits(0x5A, 8)):
            words[f"DIN.{i}"] = bit
        sim.step(words)
        zero_words = {"scan_en.0": 0}
        for i in range(8):
            zero_words[f"DIN.{i}"] = 0
        sim.step(zero_words)
        sim.step(zero_words)
        out = sim.step(zero_words)  # R3 captured the value after 3 cycles
        value = sum((out[f"DOUT.{i}"] & 1) << i for i in range(8))
        assert value == 0x5A

    def test_scan_in_port_added_when_needed(self):
        modified, plan = apply_hscan(isolated_register_circuit())
        assert "scan_in" in modified
        assert modified.get("scan_in").width == plan.scan_in_width

    def test_enable_registers_forced_in_scan_mode(self):
        b = CircuitBuilder("en")
        din = b.input("DIN", 4)
        en = b.input("EN", 1)
        r = b.register("R", 4, enable=en)
        b.drive(r, din)
        b.output("O", r)
        modified, _ = apply_hscan(b.build())
        elab = elaborate(modified)
        sim = SequentialSimulator(elab.netlist)
        words = {"scan_en.0": 1, "EN.0": 0}
        for i, bit in enumerate(int_to_bits(0xF, 4)):
            words[f"DIN.{i}"] = bit
        sim.step(words)
        # despite EN=0, scan mode loads the register
        assert sim.states["R.0"] == 1
