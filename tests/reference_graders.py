"""The scalar reference graders: the fault-grading kernels' oracle.

Grading in the library always runs the compiled programs on machine
planes (:mod:`repro.faults.kernel`).  The graders here grade one faulty
machine at a time instead, and the kernels must reproduce their
decisions bit for bit: the same detected/undetected fault lists in the
same order, the same ``first_detection`` indices, and the same
``faultsim.*`` counter values (DESIGN.md, "Fault-grading kernels").

* :func:`reference_run` grades like
  :func:`~repro.faults.kernel.grade_combinational`: parallel-pattern
  single-fault propagation, 64 patterns per batch, where for each
  still-alive fault only the fanout cone of its site is re-evaluated and
  compared against the good machine at the observation points inside
  the cone.  Detected faults are dropped between batches.
* :func:`reference_grade_sequence_group` grades like
  :func:`~repro.faults.kernel.grade_sequence_group`: one
  :class:`SequentialSimulator` per fault, clocked beside the good one.

:func:`reference_graders` swaps both in for the kernel functions, so
every grading entry point of the library runs on the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Sequence, Set, Tuple

import pytest

from repro.errors import SimulationError
from repro.faults import kernel as fault_kernel
from repro.faults.model import Fault
from repro.faults.simulator import FaultSimResult, Pattern, PatternWords, Patterns, is_words
from repro.gates.cells import SOURCE_KINDS, GateKind
from repro.gates.levelize import levelize
from repro.gates.netlist import GateNetlist, NetlistCache
from repro.gates.sequential import SequentialSimulator
from repro.gates.simulator import CombinationalSimulator, eval_kind
from repro.obs import METRICS

# the fault simulator's instruments, by name: the oracle advances the
# very counters the kernels do
_BATCHES = METRICS.counter("faultsim.batches")
_EVENTS = METRICS.counter("faultsim.events")
_DROPPED = METRICS.counter("faultsim.faults.dropped")


def word_patterns(words: PatternWords, sources: Sequence[str]) -> List[Dict[str, int]]:
    """The patterns of ``words`` as source -> bit mappings."""
    return [
        {name: (word >> p) & 1 for name, word in zip(sources, words.words)}
        for p in range(words.count)
    ]


class ReferenceGrader:
    """Combinational-view scalar grading of one netlist, one fault at a time.

    Good and faulty machines are compared at every primary output and
    every flip-flop D-pin net (the full-scan observation set, the one
    PODEM propagates to).  Each fault site's cone is walked once and kept.
    """

    def __init__(self, netlist: GateNetlist) -> None:
        self.netlist = netlist
        self.sim = CombinationalSimulator(netlist)
        order = [name for name in levelize(netlist) if netlist.gate(name).kind not in SOURCE_KINDS]
        #: combinational gate -> its position in evaluation order
        self.level: Dict[str, int] = {name: i for i, name in enumerate(order)}
        self.observe: Set[str] = {g.name for g in netlist.outputs}
        self.observe.update(flop.fanins[0] for flop in netlist.flops)
        #: fault site -> its cone
        self._cones: Dict[str, Tuple[List[str], List[str]]] = {}

    def cone(self, site_gate: str) -> Tuple[List[str], List[str]]:
        """(combinational gates downstream of site in level order, observed nets in cone)."""
        cached = self._cones.get(site_gate)
        if cached is not None:
            return cached
        fanout = self.netlist.fanout_map()
        visited: Set[str] = set()
        stack = [site_gate]
        while stack:
            name = stack.pop()
            if name in visited:
                continue
            visited.add(name)
            for reader in fanout[name]:
                kind = self.netlist.gate(reader).kind
                if kind is GateKind.DFF:
                    continue  # the D net itself is observed; state stops the cone
                stack.append(reader)
        ordered = sorted(
            (name for name in visited if name in self.level), key=self.level.__getitem__
        )
        observed = [name for name in visited if name in self.observe]
        result = (ordered, observed)
        self._cones[site_gate] = result
        return result

    def run(self, patterns: Patterns, faults: Sequence[Fault]) -> FaultSimResult:
        """Grade ``patterns`` against ``faults`` with fault dropping."""
        alive: List[Fault] = list(faults)
        result = FaultSimResult(total=len(faults))
        source_names = self.netlist.sources
        if is_words(patterns, source_names):
            patterns = word_patterns(patterns, source_names)

        for batch_start in range(0, len(patterns), 64):
            batch = patterns[batch_start : batch_start + 64]
            count = len(batch)
            mask = (1 << count) - 1
            sources: Dict[str, int] = {}
            for name in source_names:
                word = 0
                for position, pattern in enumerate(batch):
                    try:
                        if pattern[name]:
                            word |= 1 << position
                    except KeyError:
                        raise SimulationError(f"pattern misses source {name!r}") from None
                sources[name] = word
            good = self.sim.run(sources, count)

            _BATCHES.inc()
            _EVENTS.inc(count * len(alive))

            still_alive: List[Fault] = []
            for fault in alive:
                detected_word = self.detect_word(fault, good, mask, count)
                if detected_word:
                    first = batch_start + _lowest_bit(detected_word)
                    result.detected.append(fault)
                    result.first_detection[fault] = first
                else:
                    still_alive.append(fault)
            _DROPPED.inc(len(alive) - len(still_alive))
            alive = still_alive
            if not alive:
                break

        result.undetected = alive
        return result

    def detect_word(self, fault: Fault, good: Dict[str, int], mask: int, count: int) -> int:
        """Packed word of patterns on which ``fault`` is detected."""
        gate = self.netlist.gate(fault.gate)
        stuck_word = mask if fault.stuck else 0

        if fault.pin is None:
            # activation: patterns where the good value differs from the stuck value
            if good[fault.gate] == stuck_word:
                return 0
            cone_root = fault.gate
            overlay: Dict[str, int] = {fault.gate: stuck_word}
        elif gate.kind is GateKind.DFF:
            # A flop input-pin fault is observed directly at scan capture:
            # the captured value differs wherever the pin net toggles away
            # from the stuck value.
            source = gate.fanins[fault.pin]
            return (good[source] ^ stuck_word) & mask
        else:
            # pin fault: re-evaluate the gate with the pin forced
            operands = [good[s] for s in gate.fanins]
            if operands[fault.pin] == stuck_word:
                return 0
            operands[fault.pin] = stuck_word
            faulty_value = eval_kind(gate.kind, operands, mask)
            if faulty_value == good[fault.gate]:
                return 0
            cone_root = fault.gate
            overlay = {fault.gate: faulty_value}

        cone, observed = self.cone(cone_root)
        if not observed:
            return 0

        for name in cone:
            if name in overlay:
                continue  # the root's value is already forced
            g = self.netlist.gate(name)
            changed = False
            operands = []
            for source in g.fanins:
                word = overlay.get(source)
                if word is None:
                    word = good[source]
                else:
                    changed = True
                operands.append(word)
            if not changed:
                continue
            new_value = eval_kind(g.kind, operands, mask)
            if new_value != good[name]:
                overlay[name] = new_value

        detected = 0
        for name in observed:
            word = overlay.get(name)
            if word is not None:
                detected |= word ^ good[name]
        return detected & mask


def _lowest_bit(word: int) -> int:
    return (word & -word).bit_length() - 1


#: one grader per netlist, rebuilt after the netlist is edited
_GRADERS: "NetlistCache[ReferenceGrader]" = NetlistCache()


def reference_run(netlist: GateNetlist, patterns: Patterns, faults: Sequence[Fault]) -> FaultSimResult:
    """Scalar grading, one fault at a time: the oracle of
    :func:`repro.faults.kernel.grade_combinational`, with its signature."""
    return _GRADERS.get(netlist, lambda: ReferenceGrader(netlist)).run(patterns, faults)


def reference_grade_sequence_group(
    netlist: GateNetlist,
    sequences: Sequence[Sequence[Pattern]],
    length: int,
    alive: List[Fault],
    result: FaultSimResult,
) -> List[Fault]:
    """Scalar grading of one packed group of sequences, one faulty
    machine at a time: the oracle of
    :func:`repro.faults.kernel.grade_sequence_group`.  Returns the
    surviving faults."""
    count = len(sequences)

    # per-cycle packed input words across sequences
    cycle_inputs: List[Dict[str, int]] = []
    input_names = [g.name for g in netlist.inputs]
    for cycle in range(length):
        words: Dict[str, int] = {name: 0 for name in input_names}
        for position, sequence in enumerate(sequences):
            pattern = sequence[cycle]
            for name in input_names:
                if pattern.get(name, 0):
                    words[name] |= 1 << position
        cycle_inputs.append(words)

    good_sim = SequentialSimulator(netlist, pattern_count=count)
    good_trace = good_sim.run_sequence(cycle_inputs)

    survivors: List[Fault] = []
    for fault in alive:
        faulty_sim = SequentialSimulator(netlist, pattern_count=count, fault=fault.site())
        detected = False
        for cycle, outputs in enumerate(faulty_sim.run_sequence(cycle_inputs)):
            good = good_trace[cycle]
            if any(outputs[name] != good[name] for name in outputs):
                detected = True
                break
        if detected:
            result.detected.append(fault)
            result.first_detection[fault] = cycle
        else:
            survivors.append(fault)
    return survivors


@contextmanager
def reference_graders():
    """Grade with the scalar reference graders in place of the kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fault_kernel, "grade_combinational", reference_run)
        mp.setattr(fault_kernel, "grade_sequence_group", reference_grade_sequence_group)
        yield
