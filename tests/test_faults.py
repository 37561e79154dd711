"""Tests for the fault model, collapsing, and fault simulation."""

import pytest

from repro.faults import (
    Fault,
    FaultSimulator,
    collapse_faults,
    full_fault_universe,
    sequential_fault_grade,
)
from repro.faults.coverage import CoverageReport
from repro.gates import GateKind, GateNetlist


def and_netlist():
    n = GateNetlist("and2")
    n.add_gate("a", GateKind.INPUT)
    n.add_gate("b", GateKind.INPUT)
    n.add_gate("y", GateKind.AND, ["a", "b"])
    n.add_gate("Y", GateKind.OUTPUT, ["y"])
    return n.validate()


def fanout_netlist():
    """a drives both an AND and an OR -> pin faults exist on the branches."""
    n = GateNetlist("fan")
    n.add_gate("a", GateKind.INPUT)
    n.add_gate("b", GateKind.INPUT)
    n.add_gate("g1", GateKind.AND, ["a", "b"])
    n.add_gate("g2", GateKind.OR, ["a", "b"])
    n.add_gate("Y1", GateKind.OUTPUT, ["g1"])
    n.add_gate("Y2", GateKind.OUTPUT, ["g2"])
    return n.validate()


class TestUniverse:
    def test_and2_universe(self):
        faults = full_fault_universe(and_netlist())
        # stems: a, b, y (2 each); no pin faults (all nets single-fanout... a,b feed only y)
        assert len(faults) == 6

    def test_fanout_creates_pin_faults(self):
        faults = full_fault_universe(fanout_netlist())
        pin_faults = [f for f in faults if f.pin is not None]
        # a and b each fan out to g1 and g2: 2 pins x 2 gates x 2 values
        assert len(pin_faults) == 8

    def test_no_faults_on_output_markers(self):
        faults = full_fault_universe(and_netlist())
        assert not any(f.gate == "Y" for f in faults)

    def test_no_faults_on_constants(self):
        n = GateNetlist("c")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("k", GateKind.CONST1)
        n.add_gate("y", GateKind.AND, ["a", "k"])
        n.add_gate("Y", GateKind.OUTPUT, ["y"])
        faults = full_fault_universe(n.validate())
        assert not any(f.gate == "k" and f.pin is None for f in faults)


class TestCollapse:
    def test_and_collapse(self):
        n = fanout_netlist()
        faults = full_fault_universe(n)
        collapsed = collapse_faults(n, faults)
        # g1 (AND): pin sa0 faults merge into stem sa0 (2 pins collapse away)
        # g2 (OR): pin sa1 faults merge into stem sa1 (2 pins collapse away)
        assert len(collapsed) == len(faults) - 4

    def test_collapse_is_deterministic(self):
        n = fanout_netlist()
        faults = full_fault_universe(n)
        assert collapse_faults(n, faults) == collapse_faults(n, faults)

    def test_not_chain_collapse(self):
        n = GateNetlist("inv")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("n1", GateKind.NOT, ["a"])
        n.add_gate("Y", GateKind.OUTPUT, ["n1"])
        faults = full_fault_universe(n.validate())
        collapsed = collapse_faults(n, faults)
        # a/sa0, a/sa1, n1/sa0, n1/sa1: inverter merges nothing here (no pin faults
        # enumerated since fanout is 1), so 4 remain
        assert len(collapsed) == 4


class TestFaultSimulator:
    def test_and_gate_full_coverage(self):
        n = and_netlist()
        faults = collapse_faults(n, full_fault_universe(n))
        sim = FaultSimulator(n)
        patterns = [
            {"a": 1, "b": 1},
            {"a": 0, "b": 1},
            {"a": 1, "b": 0},
        ]
        result = sim.run(patterns, faults)
        assert result.coverage == 100.0
        assert not result.undetected

    def test_insufficient_patterns_leave_faults(self):
        n = and_netlist()
        faults = collapse_faults(n, full_fault_universe(n))
        sim = FaultSimulator(n)
        result = sim.run([{"a": 1, "b": 1}], faults)
        # the single pattern detects y/sa0, a/sa0, b/sa0 but no sa1 faults
        assert 0 < len(result.detected) < len(faults)
        assert result.detected and all(f.stuck == 0 for f in result.detected)

    def test_first_detection_index(self):
        n = and_netlist()
        sim = FaultSimulator(n)
        fault = Fault("y", None, 0)
        result = sim.run([{"a": 0, "b": 0}, {"a": 1, "b": 1}], [fault])
        assert result.first_detection[fault] == 1

    def test_pin_fault_detection(self):
        n = fanout_netlist()
        sim = FaultSimulator(n)
        fault = Fault("g1", 0, 1)  # AND pin a stuck at 1
        result = sim.run([{"a": 0, "b": 1}], [fault])
        assert fault in result.detected

    def test_observation_at_flop_d_pin(self):
        n = GateNetlist("seq")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("inv", GateKind.NOT, ["a"])
        n.add_gate("f", GateKind.DFF, ["inv"])
        n.add_gate("Y", GateKind.OUTPUT, ["f"])
        n.validate()
        sim = FaultSimulator(n)
        fault = Fault("inv", None, 0)
        result = sim.run([{"a": 0, "f": 0}], [fault])
        assert fault in result.detected  # observed at the D pin, not the PO

    def test_flop_pin_fault(self):
        n = GateNetlist("seq")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("b", GateKind.INPUT)
        n.add_gate("g", GateKind.AND, ["a", "b"])
        n.add_gate("f", GateKind.DFF, ["g"])
        n.add_gate("h", GateKind.OR, ["g", "f"])
        n.add_gate("Y", GateKind.OUTPUT, ["h"])
        n.validate()
        sim = FaultSimulator(n)
        fault = Fault("f", 0, 0)  # D pin stuck at 0
        result = sim.run([{"a": 1, "b": 1, "f": 0}], [fault])
        assert fault in result.detected


class TestSequentialGrade:
    def toggle(self):
        n = GateNetlist("t")
        n.add_gate("en", GateKind.INPUT)
        n.add_gate("q", GateKind.DFF, ["d"])
        n.add_gate("d", GateKind.XOR, ["q", "en"])
        n.add_gate("Q", GateKind.OUTPUT, ["q"])
        return n.validate()

    def test_detects_stuck_flop(self):
        n = self.toggle()
        fault = Fault("q", None, 0)
        sequences = [[{"en": 1}, {"en": 0}, {"en": 0}]]
        result = sequential_fault_grade(n, sequences, [fault])
        assert fault in result.detected

    def test_undetected_without_activity(self):
        n = self.toggle()
        fault = Fault("q", None, 0)
        sequences = [[{"en": 0}, {"en": 0}]]
        result = sequential_fault_grade(n, sequences, [fault])
        assert fault in result.undetected

    def test_sampling_bounds_total(self):
        n = self.toggle()
        faults = collapse_faults(n, full_fault_universe(n))
        sequences = [[{"en": 1}] * 4]
        result = sequential_fault_grade(n, sequences, faults, sample=2, seed=1)
        assert result.total == 2

    @pytest.mark.parametrize("backend", ["scalar", "numpy"])
    def test_negative_sample_rejected(self, backend):
        from contextlib import nullcontext

        from repro.errors import SimulationError
        from tests.test_kernel import reference_graders

        n = self.toggle()
        faults = collapse_faults(n, full_fault_universe(n))
        with reference_graders() if backend == "scalar" else nullcontext():
            with pytest.raises(SimulationError, match=r"got -1"):
                sequential_fault_grade(n, [[{"en": 1}]], faults, sample=-1)

    def test_unequal_lengths_rejected(self):
        n = self.toggle()
        with pytest.raises(Exception):
            sequential_fault_grade(n, [[{"en": 1}], [{"en": 1}, {"en": 0}]], [])

    def test_unequal_lengths_error_reports_counts(self):
        from repro.errors import SimulationError

        n = self.toggle()
        with pytest.raises(SimulationError, match=r"sequence 1 has 2 cycles, expected 1"):
            sequential_fault_grade(n, [[{"en": 1}], [{"en": 1}, {"en": 0}]], [])

    def test_more_sequences_than_pack_limit_chunks(self, monkeypatch):
        """Beyond-pack-limit stimulus sets grade in chunks instead of raising."""
        import repro.faults.simulator as fsim

        n = self.toggle()
        faults = collapse_faults(n, full_fault_universe(n))
        # one detecting sequence buried past the (shrunk) pack limit
        sequences = [[{"en": 0}, {"en": 0}, {"en": 0}]] * 5 + [
            [{"en": 1}, {"en": 0}, {"en": 0}]
        ]
        baseline = sequential_fault_grade(n, sequences, list(faults))

        monkeypatch.setattr(fsim, "SEQUENCE_PACK_LIMIT", 2)
        chunked = sequential_fault_grade(n, sequences, list(faults))
        assert set(chunked.detected) == set(baseline.detected)
        assert set(chunked.undetected) == set(baseline.undetected)
        assert chunked.total == baseline.total

    def test_large_pack_no_longer_raises(self, monkeypatch):
        import repro.faults.simulator as fsim

        n = self.toggle()
        fault = Fault("q", None, 0)
        monkeypatch.setattr(fsim, "SEQUENCE_PACK_LIMIT", 4)
        sequences = [[{"en": 0}, {"en": 0}]] * 9 + [[{"en": 1}, {"en": 0}]] * 2
        result = sequential_fault_grade(n, sequences, [fault])
        assert result.total == 1
        assert fault in result.detected


class TestSharedConeCache:
    def test_shared_cache_results_identical(self):
        # the second simulator grades on the compiled program and fault
        # plans the first one left in the per-netlist kernel cache
        n = fanout_netlist()
        faults = collapse_faults(n, full_fault_universe(n))
        patterns = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        cold = FaultSimulator(n).run(patterns, list(faults))
        warm = FaultSimulator(n).run(patterns, list(faults))
        assert cold.detected == warm.detected
        assert cold.undetected == warm.undetected


class TestCoverageReport:
    def test_metrics(self):
        report = CoverageReport(total=100, detected=90, redundant=8, aborted=2)
        assert report.fault_coverage == 90.0
        assert report.test_efficiency == 98.0

    def test_empty_population(self):
        report = CoverageReport(total=0, detected=0)
        assert report.fault_coverage == 100.0

    def test_merge(self):
        a = CoverageReport(total=10, detected=9, redundant=1)
        b = CoverageReport(total=20, detected=16, redundant=0)
        merged = a.merged_with(b)
        assert merged.total == 30
        assert merged.detected == 25
        assert merged.test_efficiency == pytest.approx(100 * 26 / 30)
