"""Two-phase combinational ATPG: random patterns, then PODEM.

The random phase detects the easy majority of faults cheaply (with fault
dropping); PODEM targets each survivor, proving redundancies along the
way (a survivor whose fanout cone reaches no observation point is
redundant without a search).  Every deterministic pattern is immediately
fault-simulated against the remaining fault list, its target included:
a pattern that misses its target is an :class:`~repro.errors.AtpgError`,
and fortuitous detections drop too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.atpg.compaction import compact_patterns
from repro.atpg.podem import PodemStatus, podem
from repro.errors import AtpgError
from repro.faults.collapse import collapse_faults
from repro.faults.coverage import CoverageReport
from repro.faults.model import Fault, full_fault_universe
from repro.faults.simulator import FaultSimulator
from repro.gates.cells import GateKind
from repro.gates.netlist import GateNetlist
from repro.obs import METRICS, profile_section

Pattern = Dict[str, int]

_RUNS = METRICS.counter("atpg.runs")
_RANDOM_DETECTED = METRICS.counter("atpg.random.detected")
_PODEM_DETECTED = METRICS.counter("atpg.podem.detected")
_PATTERNS = METRICS.counter("atpg.patterns")

#: the random phase grades at most this many batches of this many
#: patterns, and stops after two batches in a row detect nothing
RANDOM_BATCHES = 8
RANDOM_BATCH_SIZE = 32


@dataclass
class AtpgOutcome:
    """The products of one ATPG run."""

    patterns: List[Pattern]
    report: CoverageReport
    redundant: List[Fault] = field(default_factory=list)
    aborted: List[Fault] = field(default_factory=list)
    random_detected: int = 0
    podem_detected: int = 0


class CombinationalAtpg:
    """ATPG driver for one (full-scan view) netlist."""

    def __init__(
        self,
        netlist: GateNetlist,
        seed: int = 0,
        backtrack_limit: int = 150,
        compact: bool = True,
    ) -> None:
        self.netlist = netlist
        self.seed = seed
        self.backtrack_limit = backtrack_limit
        self.compact = compact
        self._sources = [
            g.name
            for g in netlist.gates()
            if g.kind in (GateKind.INPUT, GateKind.DFF, GateKind.SDFF)
        ]

    # ------------------------------------------------------------------
    def run(self, faults: Optional[Sequence[Fault]] = None) -> AtpgOutcome:
        """Generate a compacted pattern set covering the fault list."""
        with profile_section("atpg.run"):
            outcome = self._run(faults)
        _RUNS.inc()
        _RANDOM_DETECTED.inc(outcome.random_detected)
        _PODEM_DETECTED.inc(outcome.podem_detected)
        _PATTERNS.inc(len(outcome.patterns))
        return outcome

    def _run(self, faults: Optional[Sequence[Fault]] = None) -> AtpgOutcome:
        if faults is None:
            faults = collapse_faults(self.netlist, full_fault_universe(self.netlist))
        faults = list(faults)
        total = len(faults)
        rng = random.Random(self.seed)
        simulator = FaultSimulator(self.netlist)

        patterns: List[Pattern] = []
        alive = faults
        random_detected = 0

        # ---------------- random phase with early stopping ----------------
        useless_batches = 0
        for _ in range(RANDOM_BATCHES):
            if not alive or useless_batches >= 2:
                break
            batch = [self._random_pattern(rng) for _ in range(RANDOM_BATCH_SIZE)]
            result = simulator.run(batch, alive)
            if result.detected:
                useless_batches = 0
                random_detected += len(result.detected)
                kept_indices = sorted({result.first_detection[f] for f in result.detected})
                patterns.extend(batch[i] for i in kept_indices)
                alive = result.undetected
            else:
                useless_batches += 1

        # ---------------- deterministic phase ----------------
        redundant: List[Fault] = []
        aborted: List[Fault] = []
        podem_detected = 0
        index = 0
        while index < len(alive):
            fault = alive[index]
            outcome = podem(self.netlist, fault, backtrack_limit=self.backtrack_limit)
            if outcome.status is PodemStatus.DETECTED:
                pattern = self._complete(outcome.assignment, rng)
                patterns.append(pattern)
                # the new pattern must detect the target, and often detects others too
                graded = simulator.run([pattern], alive[index:])
                if fault not in graded.first_detection:
                    raise AtpgError(
                        f"PODEM's pattern for {fault} on {self.netlist.name!r} "
                        "does not detect it"
                    )
                podem_detected += len(graded.detected)
                alive = alive[:index] + graded.undetected
            elif outcome.status is PodemStatus.REDUNDANT:
                redundant.append(fault)
                alive.pop(index)
            else:
                aborted.append(fault)
                alive.pop(index)

        detected_count = random_detected + podem_detected
        if self.compact and patterns:
            unresolved = set(redundant) | set(aborted)
            detected_faults = [f for f in faults if f not in unresolved]
            patterns = compact_patterns(self.netlist, patterns, detected_faults)

        report = CoverageReport(
            total=total,
            detected=detected_count,
            redundant=len(redundant),
            aborted=len(aborted),
            undetected_faults=list(redundant) + list(aborted),
        )
        return AtpgOutcome(
            patterns=patterns,
            report=report,
            redundant=redundant,
            aborted=aborted,
            random_detected=random_detected,
            podem_detected=podem_detected,
        )

    # ------------------------------------------------------------------
    def _random_pattern(self, rng: random.Random) -> Pattern:
        return {name: rng.getrandbits(1) for name in self._sources}

    def _complete(self, assignment: Dict[str, int], rng: random.Random) -> Pattern:
        pattern = dict(assignment)
        for name in self._sources:
            if name not in pattern:
                pattern[name] = rng.getrandbits(1)
        return pattern
