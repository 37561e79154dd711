"""Tests for the gate-level netlist, levelization, and simulators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetlistError, SimulationError
from repro.gates import CombinationalSimulator, GateKind, GateNetlist, SequentialSimulator, levelize
from repro.gates.cells import gate_area
from repro.gates.simulator import FaultSite


def xor_netlist():
    """y = a XOR b built from AND/OR/NOT."""
    n = GateNetlist("xor2")
    n.add_gate("a", GateKind.INPUT)
    n.add_gate("b", GateKind.INPUT)
    n.add_gate("na", GateKind.NOT, ["a"])
    n.add_gate("nb", GateKind.NOT, ["b"])
    n.add_gate("t1", GateKind.AND, ["a", "nb"])
    n.add_gate("t2", GateKind.AND, ["na", "b"])
    n.add_gate("y", GateKind.OR, ["t1", "t2"])
    n.add_gate("Y", GateKind.OUTPUT, ["y"])
    return n.validate()


class TestNetlist:
    def test_duplicate_gate_rejected(self):
        n = GateNetlist("n")
        n.add_gate("g", GateKind.INPUT)
        with pytest.raises(NetlistError):
            n.add_gate("g", GateKind.INPUT)

    def test_arity_checks(self):
        n = GateNetlist("n")
        n.add_gate("a", GateKind.INPUT)
        with pytest.raises(NetlistError):
            n.add_gate("bad", GateKind.AND, ["a"])
        with pytest.raises(NetlistError):
            n.add_gate("bad2", GateKind.NOT, [])
        with pytest.raises(NetlistError):
            n.add_gate("bad3", GateKind.MUX2, ["a", "a"])

    def test_unknown_fanin_caught_by_validate(self):
        n = GateNetlist("n")
        n.add_gate("g", GateKind.NOT, ["missing"])
        with pytest.raises(NetlistError, match="unknown"):
            n.validate()

    def test_cycle_caught_by_validate(self):
        n = GateNetlist("n")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("g1", GateKind.AND, ["a", "g2"])
        n.add_gate("g2", GateKind.AND, ["a", "g1"])
        with pytest.raises(NetlistError, match="cycle"):
            n.validate()

    def test_dff_breaks_cycle(self):
        n = GateNetlist("n")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("f", GateKind.DFF, ["g"])
        n.add_gate("g", GateKind.AND, ["a", "f"])
        n.add_gate("O", GateKind.OUTPUT, ["g"])
        n.validate()

    def test_area_model(self):
        assert gate_area(GateKind.AND, 2) == 1
        assert gate_area(GateKind.AND, 4) == 3
        assert gate_area(GateKind.XOR, 2) == 2
        assert gate_area(GateKind.DFF, 1) == 5
        assert xor_netlist().area() == 5  # 2 NOT + 2 AND + 1 OR

    def test_fanout_map(self):
        n = xor_netlist()
        assert sorted(n.fanout_map()["a"]) == ["na", "t1"]


class TestLevelize:
    def test_order_respects_dependencies(self):
        n = xor_netlist()
        order = levelize(n)
        position = {name: i for i, name in enumerate(order)}
        for gate in n.gates():
            for source in gate.fanins:
                assert position[source] < position[gate.name]

    def test_all_gates_present(self):
        n = xor_netlist()
        assert sorted(levelize(n)) == sorted(g.name for g in n.gates())


class TestCombinationalSimulator:
    def test_xor_truth_table(self):
        sim = CombinationalSimulator(xor_netlist())
        # patterns: (a,b) = 00, 01, 10, 11 packed into 4-bit words
        values = sim.run({"a": 0b1100, "b": 0b1010}, pattern_count=4)
        assert values["Y"] == 0b0110

    def test_missing_source_raises(self):
        sim = CombinationalSimulator(xor_netlist())
        with pytest.raises(SimulationError):
            sim.run({"a": 1}, pattern_count=1)

    def test_output_stuck_fault(self):
        sim = CombinationalSimulator(xor_netlist())
        values = sim.run({"a": 0b1100, "b": 0b1010}, 4, fault=FaultSite("y", None, 1))
        assert values["Y"] == 0b1111

    def test_input_pin_fault(self):
        sim = CombinationalSimulator(xor_netlist())
        # t1 = a AND nb with pin a stuck at 1 -> t1 = nb
        values = sim.run({"a": 0b1100, "b": 0b1010}, 4, fault=FaultSite("t1", 0, 1))
        assert values["t1"] == 0b0101

    def test_fault_on_primary_input(self):
        sim = CombinationalSimulator(xor_netlist())
        values = sim.run({"a": 0b1100, "b": 0b1010}, 4, fault=FaultSite("a", None, 0))
        assert values["Y"] == 0b1010

    @given(a=st.integers(0, 1), b=st.integers(0, 1))
    def test_single_pattern_matches_python(self, a, b):
        sim = CombinationalSimulator(xor_netlist())
        values = sim.run({"a": a, "b": b}, 1)
        assert values["Y"] == a ^ b


class TestSequentialSimulator:
    def counter_netlist(self):
        """1-bit toggle: q <= q XOR en."""
        n = GateNetlist("toggle")
        n.add_gate("en", GateKind.INPUT)
        n.add_gate("q", GateKind.DFF, ["d"])
        n.add_gate("d", GateKind.XOR, ["q", "en"])
        n.add_gate("Q", GateKind.OUTPUT, ["q"])
        return n.validate()

    def test_toggle_counts(self):
        sim = SequentialSimulator(self.counter_netlist())
        outs = [sim.step({"en": 1})["Q"] for _ in range(4)]
        assert outs == [0, 1, 0, 1]

    def test_enable_zero_holds(self):
        sim = SequentialSimulator(self.counter_netlist())
        sim.step({"en": 1})
        assert sim.states["q"] == 1
        sim.step({"en": 0})
        assert sim.states["q"] == 1

    def test_parallel_patterns(self):
        sim = SequentialSimulator(self.counter_netlist(), pattern_count=2)
        sim.step({"en": 0b01})
        assert sim.states["q"] == 0b01

    def test_initial_states(self):
        sim = SequentialSimulator(self.counter_netlist())
        sim.states["q"] = 1
        assert sim.step({"en": 0})["Q"] == 1

    def test_stuck_flop_fault(self):
        sim = SequentialSimulator(self.counter_netlist(), fault=FaultSite("q", None, 0))
        outs = [sim.step({"en": 1})["Q"] for _ in range(3)]
        assert outs == [0, 0, 0]

    def test_run_sequence_scans_no_netlist(self, monkeypatch):
        """Inputs, outputs and flops are resolved once, in ``__init__``:
        clocking the simulator makes no ``of_kind`` scan of the netlist."""
        sim = SequentialSimulator(self.counter_netlist())
        scans = []
        original = GateNetlist.of_kind

        def counting(netlist, *kinds):
            scans.append(kinds)
            return original(netlist, *kinds)

        monkeypatch.setattr(GateNetlist, "of_kind", counting)
        traces = sim.run_sequence([{"en": 1}] * 5)
        assert [trace["Q"] for trace in traces] == [0, 1, 0, 1, 0]
        assert scans == []
