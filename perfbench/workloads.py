"""The benchmark's three workloads and the oracles that check their outputs.

A workload turns the seed into a fixed list of ops in :meth:`prepare`
(outside timing) and runs one op per :meth:`run` call.  :meth:`check` is
the op's oracle: it re-derives what the output claims by a path that does
not trust the code that produced it.  :meth:`digest` reduces an output to
a small record, equal for equal outputs, so later passes over the same op
list can be compared with the first; :meth:`totals` folds one pass's
digests into the modelled end-to-end metrics (``test_efficiency_pct``,
``tat_cycles``, ``dft_cells``; README.md says what each means on each
workload) plus the counts some per-layer ratios need.

Layer entry points are called through their module attributes
(``combinational.CombinationalAtpg``, ``optimizer.design_space``, ...)
so that the traced run's wrappers, which patch those attributes, see
every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.atpg import combinational
from repro.designs import core_builders, system_builders
from repro.dft.hscan import insert_hscan
from repro.dft.tat import hscan_vector_count
from repro.elaborate import elaborate
from repro.errors import ScheduleError
from repro.faults import simulator
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_universe
from repro.flow.system_netlist import flatten_soc
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.sequential import SequentialSimulator
from repro.soc import optimizer

#: the six distinct cores of Systems 1-4
CORES = ("CPU", "PREPROCESSOR", "DISPLAY", "GRAPHICS", "GCD", "X25")
SYSTEMS = ("System1", "System2", "System3", "System4")

#: atpg: a fixed pool of faults per core, split by the seed into ops.
#: The pool does not depend on the seed, so every seed does the same
#: ATPG work per pass (the hard faults that dominate it are the same).
ATPG_POOL_SEED = 0
ATPG_OPS_PER_CORE = 10
ATPG_FAULTS_PER_OP = 12
#: random patterns the oracle adds to an op's own when it tries to detect
#: the faults the op claims redundant
ATPG_REDUNDANCY_PROBES = 64

#: plan: times each system appears in one pass; scheduler power budgets
#: as multiples of the busiest core's scan activity (None: no budget)
PLAN_ROUNDS = 25
PLAN_POWER_FACTORS = (None, 1.0, 1.5, 2.5)

#: grade: ops per (system, with or without HSCAN) per pass, and the
#: stimulus and fault-sample shape of one op
GRADE_OPS_PER_NETLIST = 8
GRADE_SEQUENCES = 24
GRADE_LENGTH = 16
GRADE_SAMPLE = 160
#: detected and undetected verdicts the oracle replays per op
GRADE_SPOT_CHECKS = 2


class Workload:
    """A seeded op list plus the oracle for its outputs."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.ops: List = []

    def prepare(self) -> None:
        """Build the inputs and warm the caches the ops share."""
        raise NotImplementedError

    def run(self, op):
        """Run one op through the program; returns its output."""
        raise NotImplementedError

    def check(self, op, output) -> List[str]:
        """Problems the oracle finds in one op's output (empty: correct)."""
        raise NotImplementedError

    def digest(self, op, output) -> tuple:
        """A small record of the output, equal for equal outputs."""
        raise NotImplementedError

    def totals(self, ops: Sequence, digests: Sequence) -> Dict[str, float]:
        """Modelled metrics and per-layer counts of one pass."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# atpg: core test generation
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class AtpgOp:
    core: str
    netlist: object
    faults: Tuple[Fault, ...]
    seed: int
    scan_depth: int
    hscan_cells: int


class AtpgDigest(NamedTuple):
    targeted: int
    detected: int
    redundant: int
    patterns: int
    pattern_hash: int


class AtpgWorkload(Workload):
    """``CombinationalAtpg(netlist, seed).run(faults)`` on seeded fault samples.

    Each core's netlist is elaborated once, so ops on one core share its
    warm fault-cone and compiled-kernel caches.
    """

    name = "atpg"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        cores = CORES[:2] if self.tiny else CORES
        ops_per_core = 1 if self.tiny else ATPG_OPS_PER_CORE
        per_op = 6 if self.tiny else ATPG_FAULTS_PER_OP
        ops: List[AtpgOp] = []
        for name in cores:
            circuit = core_builders()[name]()
            netlist = elaborate(circuit).netlist
            hscan = insert_hscan(circuit)
            universe = sorted(
                collapse_faults(netlist, full_fault_universe(netlist)), key=Fault.sort_key
            )
            pool = random.Random(ATPG_POOL_SEED).sample(universe, ops_per_core * per_op)
            rng.shuffle(pool)
            sources = _sources(netlist)
            warm = [{s: rng.getrandbits(1) for s in sources} for _ in range(64)]
            simulator.FaultSimulator(netlist).run(warm, pool)
            for index in range(ops_per_core):
                ops.append(AtpgOp(
                    core=name,
                    netlist=netlist,
                    faults=tuple(pool[index * per_op:(index + 1) * per_op]),
                    seed=rng.randrange(1 << 31),
                    scan_depth=hscan.depth,
                    hscan_cells=hscan.extra_area,
                ))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op: AtpgOp):
        return combinational.CombinationalAtpg(op.netlist, seed=op.seed).run(op.faults)

    def check(self, op: AtpgOp, outcome) -> List[str]:
        problems = []
        report = outcome.report
        if report.total != len(op.faults):
            problems.append(f"report covers {report.total} of {len(op.faults)} faults")
        unresolved = set(outcome.redundant) | set(outcome.aborted)
        claimed = [f for f in op.faults if f not in unresolved]
        if report.detected != len(claimed):
            problems.append(
                f"report claims {report.detected} detections, but "
                f"{len(claimed)} faults are neither redundant nor aborted"
            )
        # every claimed detection must be confirmed by the final patterns
        graded = simulator.FaultSimulator(op.netlist).run(outcome.patterns, claimed)
        if graded.undetected:
            problems.append(
                f"{len(graded.undetected)} claimed detections not confirmed "
                f"by fault simulation, e.g. {graded.undetected[0]}"
            )
        # no pattern, the op's own or a random one, may detect a fault
        # the op claims redundant
        if outcome.redundant:
            rng = random.Random(op.seed)
            sources = _sources(op.netlist)
            attempts = list(outcome.patterns) + [
                {s: rng.getrandbits(1) for s in sources}
                for _ in range(ATPG_REDUNDANCY_PROBES)
            ]
            refuted = simulator.FaultSimulator(op.netlist).run(attempts, outcome.redundant)
            if refuted.detected:
                problems.append(
                    f"{len(refuted.detected)} faults claimed redundant are detected "
                    f"by fault simulation, e.g. {refuted.detected[0]}"
                )
        return problems

    def digest(self, op: AtpgOp, outcome) -> AtpgDigest:
        report = outcome.report
        patterns = tuple(tuple(sorted(p.items())) for p in outcome.patterns)
        return AtpgDigest(
            report.total, report.detected, report.redundant, len(patterns), hash(patterns)
        )

    def totals(self, ops: Sequence[AtpgOp], digests: Sequence[AtpgDigest]) -> Dict[str, float]:
        targeted = sum(d.targeted for d in digests)
        resolved = sum(d.detected + d.redundant for d in digests)
        return {
            "test_efficiency_pct": 100.0 * resolved / targeted,
            "tat_cycles": sum(
                hscan_vector_count(d.patterns, op.scan_depth) for op, d in zip(ops, digests)
            ),
            "dft_cells": sum(op.hscan_cells for op in ops),
            "faults_targeted": targeted,
        }


def _sources(netlist) -> List[str]:
    """The gates a combinational test pattern assigns: inputs and state."""
    return [
        g.name for g in netlist.gates() if g.kind is GateKind.INPUT or g.kind in STATE_KINDS
    ]


# ----------------------------------------------------------------------
# plan: the SOCET chip-level flow
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanOp:
    system: str
    power_budget: Optional[int]


@dataclass
class PlanOutput:
    soc: object
    area_budget: int
    fast: object  # the minimum-TAT plan under area_budget
    tat_budget: int
    small: object  # the minimum-area plan under tat_budget
    greedy: object
    sessions: object


class PlanDigest(NamedTuple):
    fast_tat: int
    fast_cells: int
    fast_selection: tuple
    small_tat: int
    small_cells: int
    small_selection: tuple
    greedy_makespan: int
    sessions_makespan: int
    planned_steps: int
    shipped_steps: int


class PlanWorkload(Workload):
    """Build one system fresh, sweep its design space, optimize, schedule.

    The plan cache hangs off the freshly built SOC, so it starts cold in
    every op.
    """

    name = "plan"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        rounds = 1 if self.tiny else PLAN_ROUNDS
        systems = SYSTEMS[:2] if self.tiny else SYSTEMS
        peaks = {}
        for name in systems:
            soc = system_builders()[name]()
            peaks[name] = max(core.flip_flops for core in soc.testable_cores())
        ops = []
        for _ in range(rounds):
            for name in systems:
                factor = rng.choice(PLAN_POWER_FACTORS)
                budget = None if factor is None else math.ceil(factor * peaks[name])
                ops.append(PlanOp(name, budget))
        rng.shuffle(ops)
        self.ops = ops
        # one op per system loads every module the flow imports lazily
        for name in systems:
            self.run(PlanOp(name, None))

    def run(self, op: PlanOp) -> PlanOutput:
        soc = system_builders()[op.system]()
        points = optimizer.design_space(soc)
        area_budget = max(point.chip_cells for point in points)
        fast, _ = optimizer.SocetOptimizer(soc).minimize_tat(area_budget)
        # halfway between the minimum-area point's TAT and the minimum TAT
        tat_budget = fast.total_tat + (points[0].tat - fast.total_tat) // 2
        small, _ = optimizer.SocetOptimizer(soc).minimize_area(tat_budget)
        greedy = fast.schedule(algorithm="greedy", power_budget=op.power_budget)
        sessions = fast.schedule(algorithm="sessions", power_budget=op.power_budget)
        return PlanOutput(soc, area_budget, fast, tat_budget, small, greedy, sessions)

    def check(self, op: PlanOp, out: PlanOutput) -> List[str]:
        problems = []
        if out.fast.chip_dft_cells > out.area_budget:
            problems.append(
                f"min-TAT plan uses {out.fast.chip_dft_cells} cells > budget {out.area_budget}"
            )
        if out.small.total_tat > out.tat_budget:
            problems.append(
                f"min-area plan takes {out.small.total_tat} cycles > budget {out.tat_budget}"
            )
        testable = {core.name for core in out.soc.testable_cores()}
        for label, plan in (("min-TAT", out.fast), ("min-area", out.small)):
            if set(plan.core_plans) != testable:
                problems.append(f"{label} plan covers {sorted(plan.core_plans)}")
            for name, core_plan in sorted(plan.core_plans.items()):
                problems.extend(
                    f"{label} plan of {name}: {problem}"
                    for problem in _core_plan_problems(out.soc.cores[name], core_plan)
                )
            core_sum = sum(
                p.scan_steps * p.cadence + p.flush for p in plan.core_plans.values()
            )
            if plan.total_tat != core_sum:
                problems.append(
                    f"{label} total_tat {plan.total_tat} != sum of core test times {core_sum}"
                )
        for schedule in (out.greedy, out.sessions):
            try:
                schedule.validate()
            except ScheduleError as exc:
                problems.append(f"{schedule.algorithm} schedule invalid: {exc}")
            if {entry.core for entry in schedule.entries} != set(out.fast.core_plans):
                problems.append(f"{schedule.algorithm} schedule misses a core")
        return problems

    def digest(self, op: PlanOp, out: PlanOutput) -> PlanDigest:
        planned = shipped = 0
        for plan in (out.fast, out.small):
            for name, core_plan in plan.core_plans.items():
                planned += core_plan.scan_steps
                shipped += out.soc.cores[name].hscan_vectors
        return PlanDigest(
            out.fast.total_tat, out.fast.chip_dft_cells, tuple(sorted(out.fast.selection.items())),
            out.small.total_tat, out.small.chip_dft_cells,
            tuple(sorted(out.small.selection.items())),
            out.greedy.makespan, out.sessions.makespan, planned, shipped,
        )

    def totals(self, ops: Sequence[PlanOp], digests: Sequence[PlanDigest]) -> Dict[str, float]:
        return {
            # SOCET delivers every core's whole test set: 100 unless a plan drops vectors
            "test_efficiency_pct": 100.0 * sum(d.planned_steps for d in digests)
            / sum(d.shipped_steps for d in digests),
            "tat_cycles": sum(d.fast_tat for d in digests),
            "dft_cells": sum(d.small_cells for d in digests),
        }


def _core_plan_problems(core, plan) -> List[str]:
    """A core test plan's terms re-derived from the core, not the planner.

    The core's HSCAN test set fixes the scan steps and its scan depth the
    flush; every input port needs a delivery; no transfer may take longer
    than the cadence, one vector per cadence cycles.
    """
    problems = []
    if plan.scan_steps != core.hscan_vectors:
        problems.append(
            f"{plan.scan_steps} scan steps, its HSCAN test set has {core.hscan_vectors}"
        )
    ports = {port.name for port in core.circuit.inputs}
    delivered = {delivery.port for delivery in plan.deliveries}
    if delivered != ports:
        problems.append(f"delivers to {sorted(delivered)}, inputs are {sorted(ports)}")
    longest = max(
        [1] + [d.latency for d in plan.deliveries] + [o.latency for o in plan.observations]
    )
    if plan.cadence < longest:
        problems.append(f"cadence {plan.cadence} < longest transfer {longest} cycles")
    observe = max((o.latency for o in plan.observations), default=0)
    flush = max(0, core.scan_depth - 1) + observe
    if plan.flush != flush:
        problems.append(f"flush {plan.flush} != scan depth - 1 + observation latency = {flush}")
    return problems


# ----------------------------------------------------------------------
# grade: sequential fault grading of whole chips (Table 3 Orig./HSCAN)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class GradeOp:
    system: str
    with_hscan: bool
    netlist: object
    faults: Tuple[Fault, ...]
    stimuli: tuple
    sample: int
    seed: int
    hscan_cells: int


class GradeDigest(NamedTuple):
    graded: int
    detected: int
    #: cycles the stimulus needs to reach its final coverage
    cycles: int
    verdict_hash: int


class GradeWorkload(Workload):
    """``sequential_fault_grade`` on Systems 1-4 with and without HSCAN.

    The chips are flattened once in set-up; every op grades a fresh
    seeded stimulus set against a seeded fault sample.
    """

    name = "grade"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        systems = SYSTEMS[:1] if self.tiny else SYSTEMS
        per_netlist = 1 if self.tiny else GRADE_OPS_PER_NETLIST
        sequences = 4 if self.tiny else GRADE_SEQUENCES
        length = 4 if self.tiny else GRADE_LENGTH
        sample = 16 if self.tiny else GRADE_SAMPLE
        ops: List[GradeOp] = []
        for name in systems:
            soc = system_builders()[name]()
            hscan_cells = sum(core.hscan.extra_area for core in soc.testable_cores())
            for with_hscan in (False, True):
                netlist = flatten_soc(soc, with_hscan=with_hscan, scan_access="none")
                faults = tuple(collapse_faults(netlist, full_fault_universe(netlist)))
                inputs = [g.name for g in netlist.inputs]
                for _ in range(per_netlist):
                    stimuli = tuple(
                        tuple({i: rng.getrandbits(1) for i in inputs} for _ in range(length))
                        for _ in range(sequences)
                    )
                    ops.append(GradeOp(
                        system=name,
                        with_hscan=with_hscan,
                        netlist=netlist,
                        faults=faults,
                        stimuli=stimuli,
                        sample=sample,
                        seed=rng.randrange(1 << 31),
                        hscan_cells=hscan_cells if with_hscan else 0,
                    ))
                # compile the netlist's kernel program
                simulator.sequential_fault_grade(netlist, ops[-1].stimuli, faults[:4])
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op: GradeOp):
        return simulator.sequential_fault_grade(
            op.netlist, op.stimuli, op.faults, sample=op.sample, seed=op.seed
        )

    def check(self, op: GradeOp, result) -> List[str]:
        problems = []
        if result.total != op.sample:
            problems.append(f"graded {result.total} faults, sampled {op.sample}")
        if len(result.detected) + len(result.undetected) != result.total:
            problems.append("detected + undetected != graded")
        rng = random.Random(op.seed)
        picks = rng.sample(result.detected, min(GRADE_SPOT_CHECKS, len(result.detected)))
        picks += rng.sample(result.undetected, min(GRADE_SPOT_CHECKS, len(result.undetected)))
        if not picks:
            return problems
        # replay single faults: the first cycle any primary output differs
        count = len(op.stimuli)
        cycles = []
        for cycle in range(len(op.stimuli[0])):
            words = {g.name: 0 for g in op.netlist.inputs}
            for position, sequence in enumerate(op.stimuli):
                for name, bit in sequence[cycle].items():
                    if bit:
                        words[name] |= 1 << position
            cycles.append(words)
        good = SequentialSimulator(op.netlist, pattern_count=count).run_sequence(cycles)
        for fault in picks:
            trace = SequentialSimulator(
                op.netlist, pattern_count=count, fault=fault.site()
            ).run_sequence(cycles)
            first = next(
                (cycle for cycle, outputs in enumerate(trace) if outputs != good[cycle]),
                None,
            )
            claimed = result.first_detection.get(fault)
            if first != claimed:
                problems.append(
                    f"{fault}: grading says first detection at cycle {claimed}, "
                    f"replay says {first}"
                )
        return problems

    def digest(self, op: GradeOp, result) -> GradeDigest:
        verdicts = tuple((str(f), result.first_detection[f]) for f in result.detected)
        last = max((cycle for _, cycle in verdicts), default=-1)
        return GradeDigest(result.total, len(verdicts), last + 1, hash(verdicts))

    def totals(self, ops: Sequence[GradeOp], digests: Sequence[GradeDigest]) -> Dict[str, float]:
        graded = sum(d.graded for d in digests)
        detected = sum(d.detected for d in digests)
        return {
            "test_efficiency_pct": 100.0 * detected / graded,
            "tat_cycles": sum(d.cycles for d in digests),
            "dft_cells": sum(op.hscan_cells for op in ops),
            "faults_graded": graded,
            "faults_detected": detected,
        }


WORKLOADS = {w.name: w for w in (AtpgWorkload, PlanWorkload, GradeWorkload)}
