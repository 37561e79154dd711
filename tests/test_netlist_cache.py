"""Per-netlist caches rebuild after the netlist is edited.

Levelization, depth levels, compiled kernels, fault cones, and the
PODEM structure are all cached per netlist object.  Each is tagged with
the netlist's mutation stamp, so ``add_gate``/``replace_gate`` after a
first use must never serve stale structure: simulate, mutate,
re-simulate, and the result must equal a never-simulated copy's.
"""

from contextlib import nullcontext

import pytest

from repro.atpg import podem
from repro.faults import FaultSimulator, full_fault_universe
from repro.faults.model import Fault
from repro.gates import GateKind, GateNetlist, levelize
from repro.gates.levelize import depth_levels
from repro.gates.netlist import NetlistCache

from tests.reference_graders import reference_graders

#: "scalar" grades on the reference graders, "kernel" on the kernels
BACKENDS = ["scalar", "kernel"]


def and_gate() -> GateNetlist:
    n = GateNetlist("and")
    n.add_gate("a", GateKind.INPUT)
    n.add_gate("b", GateKind.INPUT)
    n.add_gate("c", GateKind.INPUT)
    n.add_gate("g", GateKind.AND, ["a", "b"])
    n.add_gate("buf", GateKind.BUF, ["a"])
    n.add_gate("O0", GateKind.OUTPUT, ["g"])
    n.add_gate("O1", GateKind.OUTPUT, ["buf"])
    return n


def grade(netlist, backend, patterns, faults):
    with reference_graders() if backend == "scalar" else nullcontext():
        result = FaultSimulator(netlist).run(patterns, faults)
    return result.detected, result.undetected, result.first_detection


def assert_grades_like_fresh_copy(netlist, backend):
    faults = full_fault_universe(netlist)
    patterns = [{"a": a, "b": b, "c": c} for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    assert grade(netlist, backend, patterns, faults) == grade(
        netlist.copy(), backend, patterns, faults
    )


class TestStaleCaches:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replaced_gate_kind(self, backend):
        n = and_gate()
        grade(n, backend, [{"a": 1, "b": 0, "c": 0}], full_fault_universe(n))
        n.replace_gate("g", GateKind.OR, ["a", "b"])
        detected, _, _ = grade(n, backend, [{"a": 1, "b": 0, "c": 0}], [Fault("g", None, 0)])
        assert detected == [Fault("g", None, 0)]
        assert_grades_like_fresh_copy(n, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rewired_fanin_same_outputs(self, backend):
        n = and_gate()
        grade(n, backend, [{"a": 1, "b": 1, "c": 1}], full_fault_universe(n))
        n.replace_gate("buf", GateKind.BUF, ["c"])
        detected, _, _ = grade(n, backend, [{"a": 0, "b": 0, "c": 1}], [Fault("c", None, 0)])
        assert detected == [Fault("c", None, 0)]
        assert_grades_like_fresh_copy(n, backend)

    def test_depth_levels_and_levelize_see_added_gate(self):
        n = and_gate()
        before = depth_levels(n)
        assert "h" not in before and "h" not in levelize(n)
        n.add_gate("h", GateKind.NOT, ["g"])
        assert depth_levels(n) == depth_levels(n.copy())
        assert depth_levels(n)["h"] == 2
        assert levelize(n) == levelize(n.copy())

    def test_sources_see_edits(self):
        n = and_gate()
        sources = n.sources
        assert sources == ["a", "b", "c"]
        sources.append("caller's own list")
        assert n.sources == ["a", "b", "c"]
        n.add_gate("q", GateKind.DFF, ["g"])
        assert n.sources == ["a", "b", "c", "q"]
        n.replace_gate("b", GateKind.CONST0, [])
        assert n.sources == ["a", "c", "q"] == n.copy().sources

    def test_podem_after_edit(self):
        n = and_gate()
        faults = full_fault_universe(n)
        for fault in faults:
            podem(n, fault)
        n.replace_gate("g", GateKind.XOR, ["a", "c"])
        n.add_gate("O2", GateKind.OUTPUT, ["b"])
        fresh = n.copy()
        for fault in full_fault_universe(n):
            assert podem(n, fault) == podem(fresh, fault), str(fault)


class TestNetlistCache:
    def test_levelize_is_read_only_and_shared(self):
        n = and_gate()
        order = levelize(n)
        assert isinstance(order, tuple)
        assert levelize(n) is order

    def test_entry_rebuilds_only_after_mutation(self):
        cache = NetlistCache()
        n = and_gate()
        builds = []

        def build():
            builds.append(n.stamp)
            return len(builds)

        assert cache.get(n) is None
        assert cache.get(n, build) == 1
        assert cache.get(n, build) == 1
        n.add_gate("h", GateKind.NOT, ["g"])
        assert cache.get(n) is None
        assert cache.get(n, build) == 2
        assert builds[0] < builds[1] == n.stamp

    def test_copy_starts_its_own_entry(self):
        cache = NetlistCache()
        n = and_gate()
        cache.get(n, lambda: "original")
        assert cache.get(n.copy()) is None
