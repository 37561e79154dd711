"""Fault grading: its entry points, pattern sets and results.

:class:`FaultSimulator` grades combinational (full-scan view) pattern
sets and :func:`sequential_fault_grade` functional input sequences
against a fault list, with fault dropping -- the measurement instrument
the paper's coverage numbers rest on.  Both run the compiled programs of
:mod:`repro.faults.kernel` on Python-int machine planes: block 0 of every
row's int is the good machine and each fault has a block of its own, one
bit per pattern (or sequence), so one pass of a program evaluates every
machine of a plane.  Combinational grading packs 64 patterns per batch
and drops detected faults between batches; sequential grading clocks
every machine from zeroed flops.

The ``faultsim.*`` counters are registered here, so importing
:mod:`repro.faults` names them; the kernels advance these handles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.gates.netlist import GateNetlist
from repro.obs import METRICS, profile_section

_BATCHES = METRICS.counter("faultsim.batches")
_EVENTS = METRICS.counter("faultsim.events")
_DROPPED = METRICS.counter("faultsim.faults.dropped")
_SEQ_FAULTS = METRICS.counter("faultsim.sequential.faults")
_SEQ_CHUNKS = METRICS.counter("faultsim.sequential.chunks")

Pattern = Mapping[str, int]  # source gate name -> bit value


@dataclass(frozen=True)
class PatternWords:
    """``count`` combinational patterns packed one word per source, in
    :attr:`GateNetlist.sources` order: bit ``p`` of ``words[i]`` is
    pattern ``p``'s value of source ``i`` (bits from ``count`` up are
    ignored)."""

    count: int
    words: Sequence[int]


#: a combinational pattern set: a sequence of :data:`Pattern` mappings, or
#: one :class:`PatternWords`
Patterns = Union[Sequence[Pattern], PatternWords]

#: 0/1 bytes -> ASCII binary digits
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def pack_columns(matrix: bytes, width: int) -> List[int]:
    """One word per column of a row-major matrix of 0/1 bytes with
    ``width`` columns and at least one row: bit ``r`` of word ``c`` is
    ``matrix[r * width + c]``."""
    return [int(matrix[c::width][::-1].translate(_DIGITS), 2) for c in range(width)]


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

    Good and faulty machines are compared at every primary output and
    every flip-flop D-pin net (the full-scan observation set, the one
    PODEM propagates to).
    """

    def __init__(self, netlist: GateNetlist) -> None:
        self.netlist = netlist

    def run(self, patterns: Patterns, faults: Sequence[Fault]) -> FaultSimResult:
        """Grade ``patterns`` against ``faults`` with fault dropping."""
        with profile_section("faultsim.run"):
            from repro.faults import kernel as _kernel

            return _kernel.grade_combinational(self.netlist, patterns, faults)


def is_words(patterns: Patterns, sources: Sequence[str]) -> bool:
    """Whether ``patterns`` is a :class:`PatternWords` rather than a
    sequence of mappings; words that are not one per source are a
    :class:`SimulationError`."""
    if not isinstance(patterns, PatternWords):
        return False
    if len(patterns.words) != len(sources):
        raise SimulationError(
            f"pattern words cover {len(patterns.words)} sources, expected "
            f"{len(sources)}: one word per source"
        )
    return True


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
    from repro.faults import kernel as _kernel

    result = FaultSimResult(total=len(chosen))
    if not sequences:
        # nothing is detected, but a fault the netlist cannot hold is the
        # same error it is with stimuli (which check it in their group)
        _kernel._sites(_kernel.compiled_program(netlist), netlist, chosen)
        result.undetected = chosen
        return result

    length = len(sequences[0])
    for index, sequence in enumerate(sequences):
        if len(sequence) != length:
            raise SimulationError(
                f"all sequences must have equal length: sequence {index} has "
                f"{len(sequence)} cycles, expected {length}"
            )

    # one group holds every sequence (one bit each in a plane's ints), so
    # a fault's first detection is its earliest cycle over the whole set
    _SEQ_CHUNKS.inc()
    result.undetected = _kernel.grade_sequence_group(netlist, sequences, length, chosen, result)
    return result
