"""Differential tests: compiled numpy kernels vs the scalar reference.

The scalar reference graders (``FaultSimulator.reference_run`` and
``reference_grade_sequence_group``) are the bit-identity oracle
(DESIGN.md, "Vectorized kernels"): the kernels must reproduce not just
coverage numbers but the exact ``detected`` ordering, ``undetected``
survivors, ``first_detection`` pattern indices, and every
``faultsim.*`` counter -- fault dropping makes grading order-sensitive,
so anything less than bit-identity silently changes results downstream.
"""

import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.analysis import replay_soc
from repro.designs import build_system1, build_system2, build_system3, build_system4
from repro.errors import SimulationError
from repro.faults import Fault, FaultSimulator, collapse_faults, full_fault_universe
from repro.faults import kernel as fk
from repro.faults.simulator import (
    SEQUENCE_PACK_LIMIT,
    reference_grade_sequence_group,
    sequential_fault_grade,
)
from repro.flow.system_netlist import flatten_soc
from repro.gates import CombinationalSimulator, GateKind, GateNetlist
from repro.gates import kernel as gk
from repro.gates.kernel import (
    clear_kernel_caches,
    compiled_program,
    int_to_words,
    tail_masks,
    word_count,
)
from repro.obs import METRICS

from tests.test_podem_property import random_netlist

_KINDS2 = [
    GateKind.AND,
    GateKind.OR,
    GateKind.NAND,
    GateKind.NOR,
    GateKind.XOR,
    GateKind.XNOR,
]


def random_seq_netlist(seed: int, outputs: bool = True) -> GateNetlist:
    """Random netlist with DFF state feedback for sequential grading."""
    rng = random.Random(seed)
    n = GateNetlist(f"s{seed}")
    nets = []
    for i in range(rng.randint(2, 4)):
        nets.append(n.add_gate(f"i{i}", GateKind.INPUT))
    flops = []
    for i in range(rng.randint(1, 4)):
        flops.append(f"ff{i}")
        nets.append(flops[-1])
    for i in range(rng.randint(4, 14)):
        if rng.random() < 0.2:
            kind = GateKind.NOT
            fanins = [rng.choice(nets)]
        else:
            kind = rng.choice(_KINDS2)
            fanins = [rng.choice(nets), rng.choice(nets)]
        nets.append(n.add_gate(f"g{i}", kind, fanins))
    comb = [x for x in nets if not x.startswith("ff")]
    for name in flops:
        n.add_gate(name, GateKind.DFF, [rng.choice(comb)])
    for i, net in enumerate(nets[-2:] if outputs else ()):
        n.add_gate(f"O{i}", GateKind.OUTPUT, [net])
    return n.validate()


def random_sequences(netlist: GateNetlist, count: int, cycles: int, seed: int):
    rng = random.Random(seed)
    inputs = [g.name for g in netlist.inputs]
    return [
        [{name: rng.randint(0, 1) for name in inputs} for _ in range(cycles)]
        for _ in range(count)
    ]


def limbs_to_int(limbs) -> int:
    """Rebuild a Python int from uint64 limbs (LSB first)."""
    return sum(int(limb) << (64 * w) for w, limb in enumerate(limbs))


@contextmanager
def reference_graders():
    """Grade with the scalar reference graders in place of the kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fk, "grade_combinational", FaultSimulator.reference_run)
        mp.setattr(fk, "grade_sequence_group", reference_grade_sequence_group)
        yield


def grade_both_backends(run):
    """Run ``run()`` cold on the reference graders, then on the kernels;
    return each side's result and ``faultsim.*`` counter deltas."""
    out = {}
    for side in ("reference", "kernel"):
        clear_kernel_caches()
        before = dict(METRICS.counters("faultsim."))
        with reference_graders() if side == "reference" else nullcontext():
            result = run()
        after = METRICS.counters("faultsim.")
        delta = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
        out[side] = (result, delta)
    return out


def assert_identical(out):
    (rs, ds), (rn, dn) = out["reference"], out["kernel"]
    assert rs.detected == rn.detected
    assert rs.undetected == rn.undetected
    assert rs.first_detection == rn.first_detection
    assert ds == dn


# ----------------------------------------------------------------------
# word packing helpers
# ----------------------------------------------------------------------
class TestWordPacking:
    def test_word_count(self):
        assert word_count(1) == 1
        assert word_count(64) == 1
        assert word_count(65) == 2
        assert word_count(700) == 11

    def test_word_count_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            word_count(0)

    def test_tail_masks(self):
        masks = tail_masks(130)
        assert [int(m) for m in masks] == [gk.ALL_ONES, gk.ALL_ONES, 0b11]
        assert int(tail_masks(64)[0]) == gk.ALL_ONES

    def test_int_words_roundtrip(self):
        rng = random.Random(7)
        for bits in (1, 63, 64, 65, 500):
            value = rng.getrandbits(bits)
            limbs = int_to_words(value, word_count(max(bits, 1)))
            assert limbs_to_int(limbs) == value


# ----------------------------------------------------------------------
# compiled-program cache
# ----------------------------------------------------------------------
class TestProgramCache:
    def test_compile_once_then_reuse(self):
        clear_kernel_caches()
        netlist = random_netlist(3)
        before = dict(METRICS.counters("kernel."))
        first = compiled_program(netlist)
        second = compiled_program(netlist)
        after = METRICS.counters("kernel.")
        assert first is second
        assert after["kernel.compiles"] - before.get("kernel.compiles", 0) == 1
        assert after["kernel.cache.reuses"] - before.get("kernel.cache.reuses", 0) == 1

    def test_clear_forces_recompile(self):
        netlist = random_netlist(4)
        first = compiled_program(netlist)
        clear_kernel_caches()
        assert compiled_program(netlist) is not first

    def test_words_evaluated_counter(self):
        program = compiled_program(random_netlist(5))
        before = METRICS.counters().get("kernel.words_evaluated", 0)
        program.eval(program.new_values(1))
        program.eval(program.new_values(3))
        after = METRICS.counters()["kernel.words_evaluated"]
        # one 1-word pass plus one 3-word pass over every op output
        assert after - before == program.op_outputs * (1 + 3)


# ----------------------------------------------------------------------
# good-machine value parity
# ----------------------------------------------------------------------
class TestCombinationalParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_values_identical(self, seed):
        netlist = random_netlist(seed)
        rng = random.Random(100 + seed)
        pattern_count = rng.choice([1, 3, 64, 65, 130])
        sources = {
            g.name: rng.getrandbits(pattern_count) for g in netlist.inputs
        }
        scalar = CombinationalSimulator(netlist).run(sources, pattern_count)
        program = compiled_program(netlist)
        words = word_count(pattern_count)
        values = program.new_values(words)
        for name in program.source_names:
            values[program.row[name]] = int_to_words(sources[name], words)
        program.eval(values)
        values &= tail_masks(pattern_count)
        vector = {name: limbs_to_int(values[row]) for name, row in program.row.items()}
        assert scalar == vector


# ----------------------------------------------------------------------
# one-machine simulation stays on the scalar evaluator
# ----------------------------------------------------------------------
class TestOneMachineSimulation:
    def test_replay_compiles_and_evaluates_no_program(self):
        soc = build_system1()
        before = METRICS.counters("kernel.")
        assert replay_soc(soc)
        after = METRICS.counters("kernel.")
        for name in ("kernel.compiles", "kernel.words_evaluated"):
            assert after.get(name, 0) == before.get(name, 0), name


# ----------------------------------------------------------------------
# fault grading parity (the oracle contract)
# ----------------------------------------------------------------------
class TestFaultSimParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_combinational_identical(self, seed):
        netlist = random_netlist(seed)
        faults = full_fault_universe(netlist)
        rng = random.Random(1000 + seed)
        inputs = [g.name for g in netlist.inputs]
        npat = rng.choice([1, 3, 64, 65, 130, 700])
        patterns = [{name: rng.randint(0, 1) for name in inputs} for _ in range(npat)]
        out = grade_both_backends(lambda: FaultSimulator(netlist).run(patterns, faults))
        assert_identical(out)

    def test_fault_dropping_order(self):
        """Dropped faults keep the scalar batch-by-batch detected order.

        With >64 patterns grading runs in two 64-pattern batches; faults
        detected in batch 0 are dropped (never re-graded) and must
        appear in ``detected`` before any batch-1 detection, with
        ``first_detection`` naming the lowest detecting pattern index.
        """
        netlist = random_netlist(11)
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(42)
        inputs = [g.name for g in netlist.inputs]
        patterns = [{name: rng.randint(0, 1) for name in inputs} for _ in range(128)]
        out = grade_both_backends(lambda: FaultSimulator(netlist).run(patterns, faults))
        assert_identical(out)
        result, delta = out["kernel"]
        indices = [result.first_detection[f] for f in result.detected]
        batches = [i // 64 for i in indices]
        assert batches == sorted(batches), "detected order must follow batch order"
        assert delta.get("faultsim.faults.dropped", 0) == len(result.detected)

    @pytest.mark.parametrize("seed", range(12))
    def test_sequential_identical(self, seed):
        netlist = random_seq_netlist(seed)
        faults = full_fault_universe(netlist)
        rng = random.Random(2000 + seed)
        inputs = [g.name for g in netlist.inputs]
        nseq, ncyc = rng.choice([1, 5, 64, 70]), rng.randint(1, 6)
        sequences = [
            [{name: rng.randint(0, 1) for name in inputs} for _ in range(ncyc)]
            for _ in range(nseq)
        ]
        out = grade_both_backends(lambda: sequential_fault_grade(netlist, sequences, faults))
        assert_identical(out)

    def test_sequential_chunking_past_pack_limit(self):
        """More than SEQUENCE_PACK_LIMIT sequences grades in chunks."""
        netlist = random_seq_netlist(1)
        faults = full_fault_universe(netlist)
        rng = random.Random(9)
        inputs = [g.name for g in netlist.inputs]
        count = SEQUENCE_PACK_LIMIT + 40
        sequences = [
            [{name: rng.randint(0, 1) for name in inputs} for _ in range(2)]
            for _ in range(count)
        ]
        out = grade_both_backends(lambda: sequential_fault_grade(netlist, sequences, faults))
        assert_identical(out)


# ----------------------------------------------------------------------
# sequential grading edge cases
# ----------------------------------------------------------------------
def grade_sequential_both(netlist, sequences, faults):
    return grade_both_backends(lambda: sequential_fault_grade(netlist, sequences, faults))


class TestSequentialEdgeCases:
    @pytest.mark.parametrize("seed", range(3))
    def test_fault_list_crosses_chunk_boundaries(self, monkeypatch, seed):
        netlist = random_seq_netlist(seed)
        faults = full_fault_universe(netlist)
        sequences = random_sequences(netlist, 70, 4, seed)
        monkeypatch.setattr(fk, "FAULT_CHUNK", 3)
        assert len(faults) > 2 * fk.FAULT_CHUNK
        assert_identical(grade_sequential_both(netlist, sequences, faults))
        # the combinational dense sweep chunks by the same rule
        rng = random.Random(seed)
        sources = [g.name for g in netlist.inputs] + [f.name for f in netlist.flops]
        patterns = [{name: rng.randint(0, 1) for name in sources} for _ in range(130)]
        assert_identical(grade_both_backends(lambda: FaultSimulator(netlist).run(patterns, faults)))

    def test_duplicate_faults(self):
        netlist = random_seq_netlist(4)
        faults = full_fault_universe(netlist)
        doubled = faults + faults[::3] + faults[:2]
        random.Random(4).shuffle(doubled)
        out = grade_sequential_both(netlist, random_sequences(netlist, 5, 4, 4), doubled)
        assert_identical(out)
        result = out["kernel"][0]
        assert result.total == len(doubled)
        assert len(result.detected) + len(result.undetected) == len(doubled)

    def test_flop_pin_faults_mixed_with_stem_and_pin_faults(self):
        netlist = random_seq_netlist(6)
        faults = full_fault_universe(netlist)
        flop_pins = [Fault(flop.name, 0, v) for flop in netlist.flops for v in (0, 1)]
        mixed = faults + flop_pins
        random.Random(6).shuffle(mixed)
        assert any(f.pin is not None and f not in flop_pins for f in mixed)
        out = grade_sequential_both(netlist, random_sequences(netlist, 8, 5, 6), mixed)
        assert_identical(out)
        assert not set(flop_pins) & set(out["kernel"][0].detected)

    @pytest.mark.parametrize("seed", range(3))
    def test_scan_flops_identical(self, seed):
        """SDFF next state (scan-in reads the previous chain flop) matches."""
        from repro.dft.fscan import apply_fscan

        netlist = apply_fscan(random_seq_netlist(seed)).netlist
        faults = full_fault_universe(netlist)
        out = grade_sequential_both(netlist, random_sequences(netlist, 20, 6, seed), faults)
        assert_identical(out)

    def test_zero_cycle_sequences(self):
        netlist = random_seq_netlist(7)
        faults = full_fault_universe(netlist)
        out = grade_sequential_both(netlist, [[] for _ in range(3)], faults)
        assert_identical(out)
        assert out["kernel"][0].undetected == faults

    def test_netlist_without_primary_outputs(self):
        netlist = random_seq_netlist(8, outputs=False)
        assert not netlist.outputs
        faults = full_fault_universe(netlist)
        out = grade_sequential_both(netlist, random_sequences(netlist, 6, 3, 8), faults)
        assert_identical(out)
        assert out["kernel"][0].undetected == faults


# ----------------------------------------------------------------------
# the four systems
# ----------------------------------------------------------------------
class TestSystemsParity:
    @pytest.mark.parametrize(
        "build, with_hscan",
        [
            pytest.param(build, with_hscan, id=build.__name__ + ("-hscan" if with_hscan else ""))
            for build in (build_system1, build_system2, build_system3, build_system4)
            for with_hscan in (False, True)
        ],
    )
    def test_flattened_chip_grading_identical(self, build, with_hscan):
        soc = build()
        netlist = flatten_soc(soc, with_hscan=with_hscan, scan_access="none")
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(0)
        inputs = [g.name for g in netlist.inputs]
        sequences = [
            [{name: rng.getrandbits(1) for name in inputs} for _ in range(5)]
            for _ in range(4)
        ]
        out = grade_both_backends(
            lambda: sequential_fault_grade(netlist, sequences, faults, sample=60, seed=1)
        )
        assert_identical(out)

    def test_core_scan_grading_identical(self):
        from repro.elaborate import elaborate

        soc = build_system1()
        core = soc.testable_cores()[0]
        netlist = elaborate(core.circuit).netlist
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(3)
        sources = [
            g.name
            for g in netlist.gates()
            if g.kind in (GateKind.INPUT, GateKind.DFF, GateKind.SDFF)
        ]
        patterns = [
            {name: rng.getrandbits(1) for name in sources} for _ in range(192)
        ]
        out = grade_both_backends(lambda: FaultSimulator(netlist).run(patterns, faults))
        assert_identical(out)
