"""Tests for the RTL circuit container, builder DSL, and validation."""

import pytest

from repro.errors import NetlistError
from repro.rtl import CircuitBuilder, OpKind, Slice
from repro.rtl.types import Concat


def simple_pipe():
    b = CircuitBuilder("pipe")
    din = b.input("DIN", 8)
    sel = b.input("SEL", 1)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    b.drive(r1, din)
    m = b.mux("M0", [r1, din], select=sel)
    b.drive(r2, m)
    b.output("DOUT", r2)
    return b.build()


class TestBuilder:
    def test_builds_valid_circuit(self):
        circuit = simple_pipe()
        assert circuit.flip_flop_count() == 16
        assert circuit.input_bit_count() == 9
        assert circuit.output_bit_count() == 8

    def test_duplicate_name_rejected(self):
        b = CircuitBuilder("c")
        b.input("X", 1)
        with pytest.raises(NetlistError):
            b.input("X", 2)

    def test_drive_width_mismatch(self):
        b = CircuitBuilder("c")
        din = b.input("DIN", 4)
        r = b.register("R", 8)
        with pytest.raises(NetlistError):
            b.drive(r, din)

    def test_drive_partial_slice_rejected(self):
        b = CircuitBuilder("c")
        din = b.input("DIN", 8)
        r = b.register("R", 8)
        with pytest.raises(NetlistError):
            b.drive(r.sub(0, 4), din.sub(0, 4))

    def test_split_register_via_concat(self):
        b = CircuitBuilder("c")
        a = b.input("A", 4)
        c = b.input("C", 4)
        r = b.register("R", 8)
        b.drive(r, Concat((a, c)))
        b.output("O", r)
        circuit = b.build()
        assert circuit.get("R").driver.width == 8

    def test_op_width_inference(self):
        b = CircuitBuilder("c")
        a = b.input("A", 4)
        eq = b.op("E", OpKind.EQ, [a, a])
        assert eq.width == 1
        dec = b.op("D", OpKind.DECODE, [a])
        assert dec.width == 16

    def test_enable_must_be_one_bit(self):
        b = CircuitBuilder("c")
        a = b.input("A", 4)
        en = b.input("EN", 2)
        r = b.register("R", 4)
        b.drive(r, a)
        b.circuit().get("R").enable = en
        b.output("O", r)
        with pytest.raises(NetlistError):
            b.build()


class TestValidation:
    def test_missing_driver(self):
        b = CircuitBuilder("c")
        b.input("A", 1)
        b.register("R", 1)
        b.output("O", width=1, driver=Slice("R", 0, 1))
        with pytest.raises(NetlistError, match="no driver"):
            b.build()

    def test_unknown_reference(self):
        b = CircuitBuilder("c")
        b.input("A", 1)
        r = b.register("R", 1)
        b.drive(r, Slice("GHOST", 0, 1))
        b.output("O", r)
        with pytest.raises(NetlistError, match="unknown"):
            b.build()

    def test_output_cannot_be_read(self):
        b = CircuitBuilder("c")
        a = b.input("A", 1)
        o = b.output("O", a)
        r = b.register("R", 1)
        b.drive(r, o)
        with pytest.raises(NetlistError, match="cannot be read"):
            b.build()

    def test_slice_exceeding_width(self):
        b = CircuitBuilder("c")
        b.input("A", 4)
        r = b.register("R", 8)
        b.drive(r, Slice("A", 0, 8))
        b.output("O", r)
        with pytest.raises(NetlistError):
            b.build()

    def test_combinational_cycle_detected(self):
        b = CircuitBuilder("c")
        a = b.input("A", 1)
        # two muxes feeding each other
        m1 = b.mux("M1", [a, Slice("M2", 0, 1)], select=a)
        b.mux("M2", [a, m1], select=a)
        b.output("O", m1)
        with pytest.raises(NetlistError, match="cycle"):
            b.build()

    def test_register_breaks_cycle(self):
        b = CircuitBuilder("c")
        a = b.input("A", 1)
        r = b.register("R", 1)
        m = b.mux("M1", [a, r], select=a)
        b.drive(r, m)
        b.output("O", r)
        b.build()  # must not raise

    def test_mux_select_too_narrow(self):
        b = CircuitBuilder("c")
        a = b.input("A", 2)
        sel = b.input("S", 1)
        b.mux("M", [a, a, a], select=sel)
        b.output("O", Slice("M", 0, 2))
        with pytest.raises(NetlistError, match="select"):
            b.build()

    def test_no_inputs_rejected(self):
        b = CircuitBuilder("c")
        k = b.const("K", 1, 1)
        b.output("O", k)
        with pytest.raises(NetlistError, match="no inputs"):
            b.build()

    def test_copy_is_independent(self):
        circuit = simple_pipe()
        clone = circuit.copy("pipe2")
        clone.get("M0").inputs.append(Slice("DIN", 0, 8))
        assert len(circuit.get("M0").inputs) == 2
