"""Parallel-pattern single-fault-propagation simulation.

Patterns are packed 64 at a time into per-net words; for each still-alive
fault only the fanout cone of the fault site is re-evaluated and compared
against the good machine at the observation points inside the cone.
Detected faults are dropped, so later batches get cheaper -- the standard
fault-simulation workhorse the paper's coverage numbers rest on.

Grading always runs the compiled numpy kernels of
:mod:`repro.faults.kernel`.  The scalar graders kept here
(:meth:`FaultSimulator.reference_run`,
:func:`reference_grade_sequence_group`) are the kernels' bit-identity
oracle: the differential tests and the kernel bench call them by name,
and nothing in the flow selects them.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.gates.cells import GateKind
from repro.gates.netlist import GateNetlist
from repro.gates.simulator import CombinationalSimulator, eval_kind
from repro.gates.sequential import SequentialSimulator
from repro.obs import METRICS, profile_section

logger = logging.getLogger("repro.faults.simulator")

_BATCHES = METRICS.counter("faultsim.batches")
_EVENTS = METRICS.counter("faultsim.events")
_DROPPED = METRICS.counter("faultsim.faults.dropped")
_SEQ_FAULTS = METRICS.counter("faultsim.sequential.faults")
_SEQ_CHUNKS = METRICS.counter("faultsim.sequential.chunks")

#: sequences packed per word in sequential grading; longer stimulus sets
#: are chunked transparently (fault dropping carries across chunks)
SEQUENCE_PACK_LIMIT = 256

Pattern = Mapping[str, int]  # source gate name -> bit value


@dataclass
class FaultSimResult:
    """Outcome of grading a pattern set against a fault list."""

    total: int
    detected: List[Fault] = field(default_factory=list)
    undetected: List[Fault] = field(default_factory=list)
    #: fault -> index of the first pattern that detects it
    first_detection: Dict[Fault, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fault coverage in percent."""
        if self.total == 0:
            return 100.0
        return 100.0 * len(self.detected) / self.total


class FaultSimulator:
    """Combinational-view fault simulator with fault dropping.

    ``observe`` names the nets whose values are compared between the good
    and faulty machines; the default is all primary outputs plus all
    flip-flop D-pin nets (the full-scan observation set).

    :meth:`run` grades on the compiled kernels; :meth:`reference_run` is
    the scalar oracle they must match in results and ``faultsim.*``
    counters.
    """

    def __init__(
        self,
        netlist: GateNetlist,
        observe: Optional[Iterable[str]] = None,
    ) -> None:
        self.netlist = netlist
        self._sim = CombinationalSimulator(netlist)
        if observe is None:
            observed: List[str] = [g.name for g in netlist.outputs]
            for flop in netlist.flops:
                observed.append(flop.fanins[0])
        else:
            observed = list(observe)
        self._observe: Set[str] = set(observed)
        self._level: Dict[str, int] = {name: i for i, name in enumerate(self._sim.order)}
        self._fanout = netlist.fanout_map()
        #: fault site -> its cone (the reference grader's walks only)
        self._cone_cache: Dict[str, Tuple[List[str], List[str]]] = {}

    # ------------------------------------------------------------------
    def _cone(self, site_gate: str) -> Tuple[List[str], List[str]]:
        """(combinational gates downstream of site in level order, observed nets in cone)."""
        cached = self._cone_cache.get(site_gate)
        if cached is not None:
            return cached
        visited: Set[str] = set()
        stack = [site_gate]
        while stack:
            name = stack.pop()
            if name in visited:
                continue
            visited.add(name)
            for reader in self._fanout[name]:
                kind = self.netlist.gate(reader).kind
                if kind in (GateKind.DFF, GateKind.SDFF):
                    continue  # the D net itself is observed; state stops the cone
                stack.append(reader)
        ordered = sorted(
            (name for name in visited if name in self._level), key=self._level.__getitem__
        )
        observed = [name for name in visited if name in self._observe]
        result = (ordered, observed)
        self._cone_cache[site_gate] = result
        return result

    # ------------------------------------------------------------------
    def run(self, patterns: Sequence[Pattern], faults: Sequence[Fault]) -> FaultSimResult:
        """Grade ``patterns`` against ``faults`` with fault dropping."""
        with profile_section("faultsim.run"):
            from repro.faults import kernel as _kernel

            return _kernel.grade_combinational(self, patterns, faults)

    def reference_run(
        self, patterns: Sequence[Pattern], faults: Sequence[Fault]
    ) -> FaultSimResult:
        """Scalar grading, one fault at a time: the kernels' oracle."""
        alive: List[Fault] = list(faults)
        result = FaultSimResult(total=len(faults))
        source_names = [
            g.name for g in self.netlist.gates() if g.kind in (GateKind.INPUT, GateKind.DFF, GateKind.SDFF)
        ]

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
            good = self._sim.run(sources, count)

            _BATCHES.inc()
            _EVENTS.inc(count * len(alive))

            still_alive: List[Fault] = []
            for fault in alive:
                detected_word = self._reference_detect_word(fault, good, mask, count)
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

    # ------------------------------------------------------------------
    def _reference_detect_word(
        self, fault: Fault, good: Dict[str, int], mask: int, count: int
    ) -> int:
        """Packed word of patterns on which ``fault`` is detected."""
        gate = self.netlist.gate(fault.gate)
        stuck_word = mask if fault.stuck else 0

        if fault.pin is None:
            # activation: patterns where the good value differs from the stuck value
            if good[fault.gate] == stuck_word:
                return 0
            cone_root = fault.gate
            overlay: Dict[str, int] = {fault.gate: stuck_word}
        elif gate.kind in (GateKind.DFF, GateKind.SDFF):
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

        cone, observed = self._cone(cone_root)
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


def sequential_fault_grade(
    netlist: GateNetlist,
    sequences: Sequence[Sequence[Pattern]],
    faults: Sequence[Fault],
    sample: Optional[int] = None,
    seed: int = 0,
) -> FaultSimResult:
    """Grade functional input *sequences* against ``faults``.

    Used for the paper's "original circuit" and "HSCAN without chip-level
    DFT" rows: the circuit is exercised through its functional inputs over
    multiple cycles (flip-flops start at 0) and a fault counts as detected
    if any primary output differs in any cycle of any sequence.

    ``sample`` randomly subsamples the fault list (statistical fault
    grading) to bound runtime on large netlists; coverage is then an
    estimate over the sample, reported against ``total = len(sample)``.
    A negative ``sample`` is a :class:`SimulationError`.
    """
    chosen: List[Fault] = list(faults)
    if sample is not None and sample < 0:
        raise SimulationError(f"fault sample size must be >= 0, got {sample}")
    if sample is not None and sample < len(chosen):
        rng = random.Random(seed)
        chosen = rng.sample(chosen, sample)

    with profile_section("faultsim.sequential"):
        _SEQ_FAULTS.inc(len(chosen))
        return _sequential_grade(netlist, sequences, chosen)


def _sequential_grade(
    netlist: GateNetlist,
    sequences: Sequence[Sequence[Pattern]],
    chosen: List[Fault],
) -> FaultSimResult:
    result = FaultSimResult(total=len(chosen))
    if not sequences:
        result.undetected = chosen
        return result

    length = len(sequences[0])
    for index, sequence in enumerate(sequences):
        if len(sequence) != length:
            raise SimulationError(
                f"all sequences must have equal length: sequence {index} has "
                f"{len(sequence)} cycles, expected {length}"
            )

    # words pack one bit per sequence, so stimulus sets beyond the pack
    # limit are graded in chunks; dropped faults carry across chunks
    if len(sequences) > SEQUENCE_PACK_LIMIT:
        logger.debug(
            "packing %d sequences in %d chunks of <= %d",
            len(sequences),
            -(-len(sequences) // SEQUENCE_PACK_LIMIT),
            SEQUENCE_PACK_LIMIT,
        )
    from repro.faults import kernel as _kernel

    alive = chosen
    for start in range(0, len(sequences), SEQUENCE_PACK_LIMIT):
        _SEQ_CHUNKS.inc()
        group = sequences[start : start + SEQUENCE_PACK_LIMIT]
        alive = _kernel.grade_sequence_group(netlist, group, length, alive, result)
        if not alive:
            break
    result.undetected = alive
    return result


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
