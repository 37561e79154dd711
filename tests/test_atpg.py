"""Tests for PODEM, the combinational ATPG driver, and compaction."""

import random

import pytest

from repro.atpg import CombinationalAtpg, PodemResult, PodemStatus, compact_patterns, podem
from repro.atpg import combinational
from repro.errors import AtpgError
from repro.faults import Fault, FaultSimulator, collapse_faults, full_fault_universe
from repro.gates import GateKind, GateNetlist


def c17_like():
    """A small NAND network in the spirit of ISCAS c17."""
    n = GateNetlist("c17")
    for name in ["i1", "i2", "i3", "i4", "i5"]:
        n.add_gate(name, GateKind.INPUT)
    n.add_gate("n1", GateKind.NAND, ["i1", "i3"])
    n.add_gate("n2", GateKind.NAND, ["i3", "i4"])
    n.add_gate("n3", GateKind.NAND, ["i2", "n2"])
    n.add_gate("n4", GateKind.NAND, ["n2", "i5"])
    n.add_gate("n5", GateKind.NAND, ["n1", "n3"])
    n.add_gate("n6", GateKind.NAND, ["n3", "n4"])
    n.add_gate("O1", GateKind.OUTPUT, ["n5"])
    n.add_gate("O2", GateKind.OUTPUT, ["n6"])
    return n.validate()


def redundant_netlist():
    """y = a OR (a AND b): the AND branch is redundant for some faults."""
    n = GateNetlist("red")
    n.add_gate("a", GateKind.INPUT)
    n.add_gate("b", GateKind.INPUT)
    n.add_gate("g", GateKind.AND, ["a", "b"])
    n.add_gate("y", GateKind.OR, ["a", "g"])
    n.add_gate("Y", GateKind.OUTPUT, ["y"])
    return n.validate()


def unobservable_netlist():
    """Y = a AND b, plus an OR gate and a flop whose outputs nothing reads."""
    n = GateNetlist("dangling")
    n.add_gate("a", GateKind.INPUT)
    n.add_gate("b", GateKind.INPUT)
    n.add_gate("g", GateKind.AND, ["a", "b"])
    n.add_gate("Y", GateKind.OUTPUT, ["g"])
    n.add_gate("h", GateKind.OR, ["a", "b"])
    n.add_gate("f", GateKind.DFF, ["a"])
    return n.validate()


class TestPodem:
    def test_detects_simple_fault(self):
        n = c17_like()
        result = podem(n, Fault("n1", None, 1))
        assert result.status is PodemStatus.DETECTED
        # verify with the fault simulator
        pattern = {f"i{k}": result.assignment.get(f"i{k}", 0) for k in range(1, 6)}
        sim = FaultSimulator(n)
        graded = sim.run([pattern], [Fault("n1", None, 1)])
        assert graded.detected

    def test_every_collapsed_fault_handled(self):
        n = c17_like()
        faults = collapse_faults(n, full_fault_universe(n))
        sim = FaultSimulator(n)
        for fault in faults:
            result = podem(n, fault)
            assert result.status in (PodemStatus.DETECTED, PodemStatus.REDUNDANT)
            if result.status is PodemStatus.DETECTED:
                pattern = {f"i{k}": result.assignment.get(f"i{k}", 0) for k in range(1, 6)}
                assert sim.run([pattern], [fault]).detected, f"{fault} not confirmed"

    def test_redundant_fault_proven(self):
        n = redundant_netlist()
        # g stuck-at-0 is undetectable: with a=0 the OR output is g=0 either way is
        # wrong -- actually a=0 -> g=0 in good machine too; a=1 masks g entirely.
        result = podem(n, Fault("g", None, 0))
        assert result.status is PodemStatus.REDUNDANT

    def test_flop_sources_are_assignable(self):
        n = GateNetlist("seq")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("f", GateKind.DFF, ["g"])
        n.add_gate("g", GateKind.AND, ["a", "f"])
        n.add_gate("Y", GateKind.OUTPUT, ["g"])
        n.validate()
        result = podem(n, Fault("g", None, 0))
        assert result.status is PodemStatus.DETECTED
        assert result.assignment.get("f") == 1
        assert result.assignment.get("a") == 1

    def test_flop_pin_fault_justification(self):
        n = GateNetlist("seq2")
        n.add_gate("a", GateKind.INPUT)
        n.add_gate("b", GateKind.INPUT)
        n.add_gate("g", GateKind.AND, ["a", "b"])
        n.add_gate("f", GateKind.DFF, ["g"])
        n.add_gate("h", GateKind.OR, ["g", "f"])
        n.add_gate("Y", GateKind.OUTPUT, ["h"])
        n.validate()
        result = podem(n, Fault("f", 0, 0))
        assert result.status is PodemStatus.DETECTED
        assert result.assignment.get("a") == 1 and result.assignment.get("b") == 1

    def test_unobservable_fault_is_redundant_without_search(self):
        n = unobservable_netlist()
        for fault in (Fault("h", None, 0), Fault("h", 1, 1), Fault("f", None, 1)):
            assert podem(n, fault) == PodemResult(PodemStatus.REDUNDANT), fault
        # a flop D-pin fault is observed at capture, whoever reads the flop
        result = podem(n, Fault("f", 0, 0))
        assert result.status is PodemStatus.DETECTED
        assert result.assignment == {"a": 1}


class TestCombinationalAtpg:
    def test_full_coverage_on_c17(self):
        n = c17_like()
        outcome = CombinationalAtpg(n, seed=3).run()
        assert outcome.report.test_efficiency == 100.0
        assert outcome.report.fault_coverage > 95.0
        assert outcome.patterns

    def test_patterns_confirmed_by_fault_sim(self):
        n = c17_like()
        outcome = CombinationalAtpg(n, seed=3).run()
        faults = collapse_faults(n, full_fault_universe(n))
        graded = FaultSimulator(n).run(outcome.patterns, faults)
        assert len(graded.detected) == outcome.report.detected

    def test_redundancy_identified(self):
        n = redundant_netlist()
        outcome = CombinationalAtpg(n, seed=0).run()
        assert outcome.report.redundant >= 1
        assert outcome.report.test_efficiency == 100.0

    def test_pattern_missing_its_target_is_an_error(self, monkeypatch):
        """Each PODEM pattern is graded against its own target too."""
        monkeypatch.setattr(
            combinational, "podem", lambda *args, **kwargs: PodemResult(PodemStatus.DETECTED)
        )
        with pytest.raises(AtpgError, match=r"/sa[01] on 'dangling' does not detect it"):
            CombinationalAtpg(unobservable_netlist(), seed=0).run()

    def test_deterministic_given_seed(self):
        n = c17_like()
        first = CombinationalAtpg(n, seed=7).run()
        second = CombinationalAtpg(n, seed=7).run()
        assert first.patterns == second.patterns


class TestRandomDraw:
    @pytest.mark.parametrize("sources", [0, 1, 31, 33, 200])
    def test_batch_draw_equals_one_bit_calls(self, sources):
        """A random batch is the stream of per-source ``getrandbits(1)``
        calls, pattern by pattern, and leaves the generator where they do."""
        packed, single = random.Random(sources), random.Random(sources)
        bits = combinational.draw_bits(packed, 32 * sources)
        assert [list(bits[p * sources : (p + 1) * sources]) for p in range(32)] == [
            [single.getrandbits(1) for _ in range(sources)] for _ in range(32)
        ]
        assert packed.getstate() == single.getstate()


class TestCompaction:
    def test_compaction_preserves_coverage(self):
        n = c17_like()
        rng = random.Random(1)
        # the ATPG's (compacted) set plus random patterns it does not need
        patterns = CombinationalAtpg(n, seed=1).run().patterns + [
            {name: rng.getrandbits(1) for name in n.sources} for _ in range(16)
        ]
        faults = collapse_faults(n, full_fault_universe(n))
        before = FaultSimulator(n).run(patterns, faults)
        compacted = compact_patterns(n, patterns, faults)
        after = FaultSimulator(n).run(compacted, faults)
        assert len(compacted) < len(patterns)
        assert set(after.detected) == set(before.detected)

    def test_empty_patterns(self):
        assert compact_patterns(c17_like(), [], []) == []
