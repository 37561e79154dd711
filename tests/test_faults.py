"""Tests for the fault model, collapsing, and fault simulation."""

import random

import pytest

from repro.atpg import CombinationalAtpg, podem
from repro.designs import core_builders, system_builders
from repro.elaborate import elaborate
from repro.errors import AtpgError, ReproError, SimulationError
from repro.faults import (
    Fault,
    FaultSimulator,
    collapse_faults,
    collapsed_fault_universe,
    full_fault_universe,
    sequential_fault_grade,
)
from repro.faults.coverage import CoverageReport
from repro.flow.system_netlist import flatten_soc
from repro.gates import GateKind, GateNetlist, SequentialSimulator

from tests.test_podem_property import random_netlist


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


def reference_collapse(netlist, faults):
    """Union-find collapsing over ``(gate, pin, stuck)`` tuples: union
    every gate-local equivalence whose two faults are both present, then
    keep each class's smallest member in sort order."""
    present = {(f.gate, f.pin, f.stuck): f for f in faults}
    parent = {key: key for key in present}

    def find(key):
        while parent[key] != key:
            key = parent[key]
        return key

    def union(a, b):
        if a in present and b in present:
            parent[find(b)] = find(a)

    for gate in netlist.gates():
        name, kind = gate.name, gate.kind
        for pin in range(len(gate.fanins)):
            if kind is GateKind.AND:
                union((name, None, 0), (name, pin, 0))
            elif kind is GateKind.NAND:
                union((name, None, 1), (name, pin, 0))
            elif kind is GateKind.OR:
                union((name, None, 1), (name, pin, 1))
            elif kind is GateKind.NOR:
                union((name, None, 0), (name, pin, 1))
            elif kind is GateKind.NOT:
                union((name, None, 1), (name, pin, 0))
                union((name, None, 0), (name, pin, 1))
            elif kind in (GateKind.BUF, GateKind.OUTPUT, GateKind.DFF):
                union((name, None, 0), (name, pin, 0))
                union((name, None, 1), (name, pin, 1))
    classes = {}
    for key, fault in present.items():
        classes.setdefault(find(key), []).append(fault)
    return sorted((min(m, key=Fault.sort_key) for m in classes.values()), key=Fault.sort_key)


CORES = ("CPU", "PREPROCESSOR", "DISPLAY", "GRAPHICS", "GCD", "X25")
SYSTEMS = ("System1", "System2", "System3", "System4")
#: the six cores, and each system's chip flattened without and with HSCAN
NETLISTS = [(core, None) for core in CORES] + [
    (system, hscan) for system in SYSTEMS for hscan in (False, True)
]
NETLIST_IDS = [
    name if hscan is None else f"{name}-{'hscan' if hscan else 'orig'}" for name, hscan in NETLISTS
]


def _netlist(name, hscan):
    if hscan is None:
        return elaborate(core_builders()[name]()).netlist
    return flatten_soc(system_builders()[name](), with_hscan=hscan, scan_access="none")


class TestCollapsedUniverse:
    @pytest.mark.parametrize("name,hscan", NETLISTS, ids=NETLIST_IDS)
    def test_matches_union_find_collapse(self, name, hscan):
        netlist = _netlist(name, hscan)
        universe = full_fault_universe(netlist)
        expected = reference_collapse(netlist, universe)
        assert collapsed_fault_universe(netlist) == expected
        assert collapse_faults(netlist, universe) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_arbitrary_fault_lists_match(self, seed):
        """Subsets, shuffled and with duplicates, plus faults the netlist
        cannot hold (unknown gate, pin beyond the fanins), on a core and
        on a random netlist of every gate kind (the cores hold no NAND or
        NOR): a subset can hold a pin fault without the stem fault its
        rule names."""
        rng = random.Random(seed)
        for netlist in (_netlist(CORES[seed], None), random_netlist(seed, flops=True)):
            universe = full_fault_universe(netlist)
            for share in (2, 3, 4):
                faults = rng.sample(universe, len(universe) // share) * 2
                faults += [Fault("no-such-gate", 0, 1), Fault(universe[-1].gate, 9, 0)]
                rng.shuffle(faults)
                assert collapse_faults(netlist, faults) == reference_collapse(netlist, faults)


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

    @pytest.mark.parametrize("backend", ["scalar", "kernel"])
    def test_negative_sample_rejected(self, backend):
        from contextlib import nullcontext

        from tests.reference_graders import reference_graders

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

    def test_first_detection_is_the_earliest_over_every_sequence(self):
        """300 sequences grade as one group: a fault's first detection is
        its earliest cycle over the whole set, as a replay of the whole
        set on the sequential simulator finds it, and dropping a fault
        in one sequence never hides an earlier detection in another."""
        n = and_netlist()
        idle, hit = {"a": 0, "b": 0}, {"a": 1, "b": 1}
        sequences = [[idle] * 8 for _ in range(300)]
        sequences[0] = [idle] * 5 + [hit] + [idle] * 2  # y/sa0 at cycle 5
        sequences[290] = [idle] * 2 + [hit] + [idle] * 5  # y/sa0 at cycle 2
        faults = [Fault("y", None, 0), Fault("y", None, 1), Fault("a", None, 1)]
        result = sequential_fault_grade(n, sequences, faults)
        assert result.detected == faults[:2] and result.undetected == faults[2:]
        assert result.first_detection == {faults[0]: 2, faults[1]: 0}

        words = [
            {name: sum(seq[cycle][name] << i for i, seq in enumerate(sequences))
             for name in ("a", "b")}
            for cycle in range(8)
        ]
        good = SequentialSimulator(n, pattern_count=300).run_sequence(words)
        for fault in faults[:2]:
            faulty = SequentialSimulator(n, pattern_count=300, fault=fault.site())
            trace = faulty.run_sequence(words)
            first = next(cycle for cycle in range(8) if trace[cycle] != good[cycle])
            assert result.first_detection[fault] == first

    def test_more_sequences_than_pack_limit_chunks(self):
        """A set wider than a 256-sequence pack grades as one group to what
        grading each distinct sequence alone finds: the detecting sequence
        buried past the first 256 is still seen, at its own cycle."""
        n = self.toggle()
        faults = collapse_faults(n, full_fault_universe(n))
        idle = [{"en": 0}, {"en": 0}, {"en": 0}]
        toggling = [{"en": 1}, {"en": 0}, {"en": 0}]
        sequences = [idle] * 300 + [toggling]
        whole = sequential_fault_grade(n, sequences, list(faults))

        alone = [sequential_fault_grade(n, [seq], list(faults)) for seq in (idle, toggling)]
        detected = set().union(*(set(r.detected) for r in alone))
        assert detected
        assert set(whole.detected) == detected
        assert set(whole.undetected) == set(faults) - detected
        assert whole.total == len(faults)
        for fault in detected:
            earliest = min(r.first_detection[f] for r in alone for f in r.detected if f == fault)
            assert whole.first_detection[fault] == earliest

    def test_large_pack_no_longer_raises(self):
        n = self.toggle()
        fault = Fault("q", None, 0)
        sequences = [[{"en": 0}, {"en": 0}]] * 1030 + [[{"en": 1}, {"en": 0}]] * 2
        result = sequential_fault_grade(n, sequences, [fault])
        assert result.total == 1
        assert fault in result.detected
        assert result.first_detection[fault] == 1


#: every entry point that meets a fault list with the netlist's structure
ENTRY_POINTS = {
    "FaultSimulator.run": lambda n, f: FaultSimulator(n).run([{"a": 1, "b": 1}], [f]),
    "sequential_fault_grade": lambda n, f: sequential_fault_grade(n, [[{"a": 1, "b": 1}]], [f]),
    "CombinationalAtpg.run": lambda n, f: CombinationalAtpg(n).run([f]),
    "podem": podem,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "fault",
    [Fault("y", 5, 0), Fault("y", -1, 0), Fault("y", None, 2), Fault("a", 0, 0)],
    ids=["pin-beyond-fanins", "negative-pin", "stuck-2", "pin-of-an-input"],
)
def test_malformed_fault_is_a_named_error(entry, fault):
    n = and_netlist()
    with pytest.raises((SimulationError, AtpgError)) as error:
        ENTRY_POINTS[entry](n, fault)
    assert str(error.value).startswith(f"fault {fault} does not fit netlist 'and2': ")


@pytest.mark.parametrize("fault", [Fault("y", 5, 0), Fault("nope", None, 0)], ids=str)
def test_empty_stimuli_still_check_the_faults(fault):
    """No stimulus detects nothing, but a fault the netlist cannot hold
    fails as it does with one stimulus."""
    n = and_netlist()
    with pytest.raises(ReproError) as stimulated:
        sequential_fault_grade(n, [[{"a": 1, "b": 1}]], [fault])
    with pytest.raises(ReproError) as empty:
        sequential_fault_grade(n, [], [fault])
    assert (type(empty.value), str(empty.value)) == (type(stimulated.value), str(stimulated.value))
    assert sequential_fault_grade(n, [], [Fault("y", 0, 0)]).undetected == [Fault("y", 0, 0)]


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
