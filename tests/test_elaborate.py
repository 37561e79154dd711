"""Tests for RTL-to-gate elaboration: operators, muxes, registers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elaborate import elaborate
from repro.gates import SequentialSimulator
from repro.rtl import CircuitBuilder, OpKind
from repro.rtl.types import Concat

from tests.bits import int_to_bits


def _drive_inputs(elab, assignments):
    """Expand per-port integer values into per-bit source words."""
    words = {}
    for port, value in assignments.items():
        width = elab.circuit.get(port).width
        for i, bit in enumerate(int_to_bits(value, width)):
            words[f"{port}.{i}"] = bit
    return words


def _read_port(values, elab, port):
    width = elab.circuit.get(port).width
    return sum((values[f"{port}.{i}"] & 1) << i for i in range(width))


def combinational_op_circuit(kind, width=4, arity=2):
    b = CircuitBuilder(f"op_{kind.value}")
    a = b.input("A", width)
    operands = [a]
    if arity == 2:
        operands.append(b.input("B", width))
    result = b.op("OP", kind, operands)
    b.output("Y", result)
    return b.build()


def run_op(kind, a, b_value=None, width=4, arity=2):
    circuit = combinational_op_circuit(kind, width, arity)
    elab = elaborate(circuit)
    sim = SequentialSimulator(elab.netlist)
    inputs = {"A": a}
    if arity == 2:
        inputs["B"] = b_value
    outs = sim.step(_drive_inputs(elab, inputs))
    out_width = elab.circuit.get("Y").width
    return sum((outs[f"Y.{i}"] & 1) << i for i in range(out_width))


class TestOperators:
    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_add(self, a, b):
        assert run_op(OpKind.ADD, a, b) == (a + b) & 0xF

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_sub(self, a, b):
        assert run_op(OpKind.SUB, a, b) == (a - b) & 0xF

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_compare(self, a, b):
        assert run_op(OpKind.EQ, a, b) == int(a == b)
        assert run_op(OpKind.LT, a, b) == int(a < b)

    @given(a=st.integers(0, 15))
    @settings(max_examples=20, deadline=None)
    def test_unary(self, a):
        assert run_op(OpKind.INC, a, arity=1) == (a + 1) & 0xF
        assert run_op(OpKind.DEC, a, arity=1) == (a - 1) & 0xF
        assert run_op(OpKind.NOT, a, arity=1) == (~a) & 0xF
        assert run_op(OpKind.SHL, a, arity=1) == (a << 1) & 0xF
        assert run_op(OpKind.SHR, a, arity=1) == a >> 1

    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    @settings(max_examples=20, deadline=None)
    def test_bitwise(self, a, b):
        assert run_op(OpKind.AND, a, b) == a & b
        assert run_op(OpKind.OR, a, b) == a | b
        assert run_op(OpKind.XOR, a, b) == a ^ b

    @given(a=st.integers(0, 7))
    @settings(max_examples=10, deadline=None)
    def test_decode(self, a):
        circuit = combinational_op_circuit(OpKind.DECODE, width=3, arity=1)
        elab = elaborate(circuit)
        sim = SequentialSimulator(elab.netlist)
        outs = sim.step(_drive_inputs(elab, {"A": a}))
        value = sum((outs[f"Y.{i}"] & 1) << i for i in range(8))
        assert value == 1 << a

    @given(a=st.integers(0, 15))
    @settings(max_examples=10, deadline=None)
    def test_reductions(self, a):
        assert run_op(OpKind.REDUCE_OR, a, arity=1) == int(a != 0)
        assert run_op(OpKind.REDUCE_AND, a, arity=1) == int(a == 15)


class TestMuxElaboration:
    @given(sel=st.integers(0, 3), data=st.lists(st.integers(0, 255), min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_three_input_mux_clamps(self, sel, data):
        b = CircuitBuilder("m3")
        ports = [b.input(f"D{i}", 8) for i in range(3)]
        s = b.input("S", 2)
        m = b.mux("M", ports, select=s)
        b.output("Y", m)
        elab = elaborate(b.build())
        sim = SequentialSimulator(elab.netlist)
        inputs = {f"D{i}": data[i] for i in range(3)}
        inputs["S"] = sel
        outs = sim.step(_drive_inputs(elab, inputs))
        value = sum((outs[f"Y.{i}"] & 1) << i for i in range(8))
        expected = data[min(sel, 2)]
        assert value == expected


class TestRegisters:
    def test_plain_register_delays_one_cycle(self):
        b = CircuitBuilder("r")
        din = b.input("D", 4)
        r = b.register("R", 4)
        b.drive(r, din)
        b.output("Q", r)
        elab = elaborate(b.build())
        sim = SequentialSimulator(elab.netlist)
        out0 = sim.step(_drive_inputs(elab, {"D": 9}))
        assert sum((out0[f"Q.{i}"] & 1) << i for i in range(4)) == 0
        out1 = sim.step(_drive_inputs(elab, {"D": 0}))
        assert sum((out1[f"Q.{i}"] & 1) << i for i in range(4)) == 9

    def test_enable_holds_value(self):
        b = CircuitBuilder("r")
        din = b.input("D", 4)
        en = b.input("EN", 1)
        r = b.register("R", 4, enable=en)
        b.drive(r, din)
        b.output("Q", r)
        elab = elaborate(b.build())
        sim = SequentialSimulator(elab.netlist)
        sim.step(_drive_inputs(elab, {"D": 5, "EN": 1}))
        sim.step(_drive_inputs(elab, {"D": 12, "EN": 0}))
        out = sim.step(_drive_inputs(elab, {"D": 0, "EN": 0}))
        assert sum((out[f"Q.{i}"] & 1) << i for i in range(4)) == 5

    def test_split_register_concat_driver(self):
        b = CircuitBuilder("r")
        a = b.input("A", 4)
        c = b.input("C", 4)
        r = b.register("R", 8)
        b.drive(r, Concat((a, c)))
        b.output("Q", r)
        elab = elaborate(b.build())
        sim = SequentialSimulator(elab.netlist)
        sim.step(_drive_inputs(elab, {"A": 0x5, "C": 0xA}))
        out = sim.step(_drive_inputs(elab, {"A": 0, "C": 0}))
        assert sum((out[f"Q.{i}"] & 1) << i for i in range(8)) == 0xA5


class TestAreaReport:
    def test_flop_count_matches_rtl(self):
        b = CircuitBuilder("a")
        din = b.input("D", 4)
        r1 = b.register("R1", 4)
        r2 = b.register("R2", 4)
        b.drive(r1, din)
        b.drive(r2, r1)
        b.output("Q", r2)
        elab = elaborate(b.build())
        assert len(elab.netlist.flops) == 8
