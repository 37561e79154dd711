"""Differential tests: compiled kernels vs the scalar reference.

The scalar reference graders (``reference_run`` and
``reference_grade_sequence_group`` in ``tests/reference_graders.py``)
are the bit-identity oracle (DESIGN.md, "Fault-grading kernels"), swapped
in for the kernel functions by ``reference_graders()``: the kernels must
reproduce not just coverage numbers but the exact ``detected`` ordering,
``undetected`` survivors, ``first_detection`` pattern indices, and every
``faultsim.*`` counter -- fault dropping makes grading order-sensitive,
so anything less than bit-identity silently changes results downstream.
"""

import random
from contextlib import nullcontext

import pytest

from repro.analysis import certify_soc, replay_soc
from repro.designs import build_system1, build_system2, build_system3, build_system4
from repro.errors import SimulationError
from repro.faults import Fault, FaultSimulator, collapse_faults, full_fault_universe
from repro.faults import kernel as fk
from repro.faults.simulator import PatternWords, sequential_fault_grade
from repro.flow.system_netlist import flatten_soc
from repro.gates import CombinationalSimulator, GateKind, GateNetlist
from repro.gates.kernel import clear_kernel_caches, compiled_program
from repro.obs import METRICS

from tests.reference_graders import reference_graders, word_patterns
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
        program.eval(program.new_values(1), 1)
        program.eval(program.new_values(7), 3)
        after = METRICS.counters()["kernel.words_evaluated"]
        # one 1-machine pass plus one 3-machine pass over every gate
        assert after - before == program.gates * (1 + 3)


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
        values = program.new_values((1 << pattern_count) - 1)
        for name in program.source_names:
            values[program.row[name]] = sources[name]
        program.eval(values, 1)
        vector = {name: values[row] for name, row in program.row.items()}
        assert scalar == vector


# ----------------------------------------------------------------------
# one-machine simulation stays on the scalar evaluator
# ----------------------------------------------------------------------
class TestOneMachineSimulation:
    def test_replay_compiles_and_evaluates_no_program(self):
        soc = build_system1()
        certificate = certify_soc(soc)
        before = METRICS.counters("kernel.")
        assert replay_soc(soc, certificate)
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
        """296 sequences, more than 256 bits per row, grade as one group."""
        netlist = random_seq_netlist(1)
        faults = full_fault_universe(netlist)
        rng = random.Random(9)
        inputs = [g.name for g in netlist.inputs]
        count = 296
        sequences = [
            [{name: rng.randint(0, 1) for name in inputs} for _ in range(2)]
            for _ in range(count)
        ]
        out = grade_both_backends(lambda: sequential_fault_grade(netlist, sequences, faults))
        assert_identical(out)


# ----------------------------------------------------------------------
# grading edge cases (sequential, and combinational on the same lists)
# ----------------------------------------------------------------------
def grade_sequential_both(netlist, sequences, faults):
    return grade_both_backends(lambda: sequential_fault_grade(netlist, sequences, faults))


def grade_combinational_both(netlist, faults, count, seed):
    """Grade ``count`` random full-scan patterns (inputs and flops) on both backends."""
    rng = random.Random(seed)
    sources = [g.name for g in netlist.inputs] + [f.name for f in netlist.flops]
    patterns = [{name: rng.randint(0, 1) for name in sources} for _ in range(count)]
    return grade_both_backends(lambda: FaultSimulator(netlist).run(patterns, faults))


class TestSequentialEdgeCases:
    @pytest.mark.parametrize("seed", range(3))
    def test_fault_list_crosses_chunk_boundaries(self, monkeypatch, seed):
        netlist = random_seq_netlist(seed)
        faults = full_fault_universe(netlist)
        sequences = random_sequences(netlist, 70, 4, seed)
        # planes of four 70-bit blocks: three faults beside the good machine
        monkeypatch.setattr(fk, "PLANE_BITS", 4 * 70)
        assert len(faults) > 2 * 3
        assert_identical(grade_sequential_both(netlist, sequences, faults))
        # the combinational planes chunk by the same rule (three faults
        # per plane of 64-pattern blocks)
        assert_identical(grade_combinational_both(netlist, faults, 130, seed))

    def test_duplicate_faults(self):
        netlist = random_seq_netlist(4)
        faults = full_fault_universe(netlist)
        doubled = faults + faults[::3] + faults[:2]
        random.Random(4).shuffle(doubled)
        for out in (
            grade_sequential_both(netlist, random_sequences(netlist, 5, 4, 4), doubled),
            grade_combinational_both(netlist, doubled, 70, 4),
        ):
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
        # at scan capture a flop input-pin fault is observed directly:
        # mixed in, and alone (no faulty machine, only the good one)
        for faults in (mixed, flop_pins):
            for count in (1, 70):
                out = grade_combinational_both(netlist, faults, count, 6)
                assert_identical(out)
        assert set(flop_pins) & set(out["kernel"][0].detected)

    def test_pattern_missing_a_source_is_an_error(self):
        netlist = random_netlist(2)
        faults = full_fault_universe(netlist)
        rng = random.Random(2)
        sources = [g.name for g in netlist.inputs]

        def run_on(patterns):
            def run():
                with pytest.raises(SimulationError) as error:
                    FaultSimulator(netlist).run(patterns, faults)
                return str(error.value)

            return grade_both_backends(run)

        patterns = [{name: rng.randint(0, 1) for name in sources} for _ in range(40)]
        del patterns[5][sources[-1]]
        out = run_on(patterns)
        assert out["kernel"] == out["reference"]
        assert out["kernel"] == (f"pattern misses source {sources[-1]!r}", {})

        # a later batch fails after the batches before it were graded and
        # counted, naming the first missing source in source order
        patterns = [{name: rng.randint(0, 1) for name in sources} for _ in range(150)]
        del patterns[100][sources[-1]]
        del patterns[120][sources[0]]
        out = run_on(patterns)
        assert out["kernel"] == out["reference"]
        message, delta = out["kernel"]
        assert message == f"pattern misses source {sources[0]!r}"
        assert delta["faultsim.batches"] == 1

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

    @pytest.mark.parametrize("core", ["CPU", "PREPROCESSOR", "DISPLAY", "GRAPHICS", "GCD", "X25"])
    def test_atpg_call_shapes_identical(self, core):
        """The calls ATPG makes: 1-12 alive faults against one PODEM
        pattern or one 32-pattern random batch."""
        from repro.designs import core_builders
        from repro.elaborate import elaborate

        netlist = elaborate(core_builders()[core]()).netlist
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(5)
        for count in range(1, 13):
            sample = rng.sample(faults, count)
            for patterns in (1, 32):
                assert_identical(grade_combinational_both(netlist, sample, patterns, count))

    def test_core_scan_grading_identical(self):
        from repro.elaborate import elaborate

        soc = build_system1()
        core = soc.testable_cores()[0]
        netlist = elaborate(core.circuit).netlist
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(3)
        sources = netlist.sources
        patterns = [{name: rng.getrandbits(1) for name in sources} for _ in range(192)]
        out = grade_both_backends(lambda: FaultSimulator(netlist).run(patterns, faults))
        assert_identical(out)


# ----------------------------------------------------------------------
# pattern words (the ATPG's random batches)
# ----------------------------------------------------------------------
def pattern_words(sources, patterns) -> PatternWords:
    return PatternWords(
        len(patterns),
        [sum(pattern[name] << p for p, pattern in enumerate(patterns)) for name in sources],
    )


class TestPatternMatrix:
    """A pattern set packed as a bit matrix: one :class:`PatternWords`
    word per source column."""

    @pytest.mark.parametrize("core", ["CPU", "PREPROCESSOR", "DISPLAY", "GRAPHICS", "GCD", "X25"])
    def test_matrix_grades_like_its_dicts(self, core):
        """Per-source words and the same patterns as mappings grade
        alike, on the kernel and on the oracle."""
        from repro.atpg.combinational import draw_bits
        from repro.designs import core_builders
        from repro.elaborate import elaborate

        netlist = elaborate(core_builders()[core]()).netlist
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        sources = netlist.sources
        width = len(sources)
        bits = draw_bits(random.Random(9), 96 * width)
        dicts = [dict(zip(sources, bits[p * width : (p + 1) * width])) for p in range(96)]
        words = pattern_words(sources, dicts)
        assert word_patterns(words, sources) == dicts
        as_dicts = grade_both_backends(lambda: FaultSimulator(netlist).run(dicts, faults))
        as_words = grade_both_backends(lambda: FaultSimulator(netlist).run(words, faults))
        assert_identical(as_words)
        for side in ("reference", "kernel"):
            (rd, dd), (rw, dw) = as_dicts[side], as_words[side]
            assert rw.detected == rd.detected, side
            assert rw.first_detection == rd.first_detection, side
            assert dw == dd, side
        assert as_words["kernel"][1]["faultsim.batches"] == 2

    def test_matrix_of_the_wrong_shape_is_an_error(self):
        netlist = random_netlist(2)
        faults = full_fault_universe(netlist)
        width = len(netlist.sources)
        for words in (PatternWords(4, [0] * (width + 1)), PatternWords(4, [])):

            def run():
                with pytest.raises(SimulationError) as error:
                    FaultSimulator(netlist).run(words, faults)
                return str(error.value)

            out = grade_both_backends(run)
            assert out["kernel"] == out["reference"]
            assert f"expected {width}: one word per source" in out["kernel"][0]
