"""Vectorized fault grading over compiled netlist programs.

Every fault grading in the flow runs here: :meth:`FaultSimulator.run`
calls :func:`grade_combinational` and
:func:`~repro.faults.simulator.sequential_fault_grade` calls
:func:`grade_sequence_group`.  The scalar reference graders of
:mod:`repro.faults.simulator` are the bit-identity *oracle*: this module
reproduces their decisions -- the same detected/undetected fault lists
in the same order, the same ``first_detection`` indices, and the same
``faultsim.*`` counter values -- while doing the arithmetic as dense
numpy sweeps.

Both graders share one plane layout.  A chunk of F faults runs as one
``(rows, (F + 1) * W)`` value plane: word block 0 (columns ``0`` to
``W``) is the good machine and block ``f + 1`` is fault ``f``'s machine,
so the compiled program evaluates all of them in one pass per level.
One function, :func:`_plane`, makes the per-level forcing tables: after
each level, a stem fault at that level stores its stuck word into its
row inside its own block, and a pin fault recomputes its gate there
with the faulty pin reading the reserved constant row of its stuck
value.  A fault is detected where an observed row of its block differs
from block 0.

Combinational grading keeps the reference's batch structure (64
patterns per batch, fault dropping between batches -- anything coarser
would change which faults are still alive when): one plane sweeps word
0 for every alive fault, one more sweeps the tail words for the
survivors, and a cheap replay of the reference batch loop then
re-derives the exact counters and orderings.  Upstream of a fault's
site its block equals the good machine, so a pin fault reads fault-free
operands.  Flop input-pin faults get no block: they are observed at
scan capture, read off the good machine.

Sequential grading runs every machine cycle by cycle with carried
per-block state, mirroring the reference's per-fault
:class:`SequentialSimulator` semantics (flop input-pin faults are inert
there, stem faults force their row every cycle, and a pin fault's gate
reads its own block, where corrupted state feeds back).

One documented divergence: the reference discovers a pattern that
misses a source lazily, batch by batch and source by source, while the
kernel packs every pattern up front, so on malformed input the two may
name different missing sources, and the reference has already counted
the batches before the malformed one.  Well-formed pattern sets behave
identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.faults.simulator import FaultSimResult, Pattern, Patterns, _lowest_bit, is_matrix
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.kernel import (
    ALL_ONES,
    CompiledProgram,
    _PAD_ROW,
    ONE_ROW,
    ZERO_ROW,
    compiled_program,
    eval_group_ops,
    tail_masks,
    word_count,
)
from repro.gates.netlist import GateNetlist
from repro.obs import METRICS

# the fault simulator's instruments, shared by name so the kernels and
# the reference graders advance the very same counters
_BATCHES = METRICS.counter("faultsim.batches")
_EVENTS = METRICS.counter("faultsim.events")
_DROPPED = METRICS.counter("faultsim.faults.dropped")

#: most faults evaluated per dense value plane
FAULT_CHUNK = 1024


def _faults_per_plane(program: CompiledProgram, words: int) -> int:
    """Faults per ``(rows, faults * words)`` plane: at most :data:`FAULT_CHUNK`,
    and fewer (but at least 16) where the plane would pass ~64 MB, so wide
    pattern sets stay in cache."""
    return min(FAULT_CHUNK, max(16, (64 << 20) // (program.rows * words * 8)))


class _Plan:
    """Per-fault lowering: how to force one fault into a value plane.

    A stem fault (``operands`` None) stores its ``stuck`` word into its
    row.  A pin fault recomputes its row as gate ``op`` over
    ``operands``: the gate's fanin rows, the faulty pin reading the
    reserved constant row of its stuck value.  A flop input-pin fault
    (``flop_pin``) is never forced: it is seen at scan capture, where net
    ``src_row`` meets ``stuck``, and is inert in sequences.
    """

    __slots__ = ("fault", "flop_pin", "row", "level", "stuck", "op", "operands", "src_row")

    def __init__(self, program: CompiledProgram, fault: Fault) -> None:
        gate = program.netlist.gate(fault.gate)
        self.fault = fault
        self.flop_pin = fault.pin is not None and gate.kind in STATE_KINDS
        self.row = program.row[fault.gate]
        self.level = program.level[fault.gate]
        self.stuck = np.uint64(ALL_ONES if fault.stuck else 0)
        self.op = gate.kind
        self.operands = None
        self.src_row = -1
        if self.flop_pin:
            self.src_row = program.row[gate.fanins[fault.pin]]
        elif fault.pin is not None:
            self.operands = [program.row[f] for f in gate.fanins]
            self.operands[fault.pin] = ONE_ROW if fault.stuck else ZERO_ROW


def _plan(program: CompiledProgram, fault: Fault) -> _Plan:
    """The fault's plan, cached on the program (gradings re-use faults)."""
    plan = program.plan_cache.get(fault)
    if plan is None:
        plan = program.plan_cache[fault] = _Plan(program, fault)
    return plan


def _plane(program: CompiledProgram, plans: Sequence[_Plan], words: int):
    """A fresh plane of ``len(plans) + 1`` blocks of ``words`` words each.

    Returns ``(plane, blocks, force)``: ``blocks`` views the plane as
    ``(rows, machines, words)``, and ``force`` is the ``after_level``
    hook that keeps ``plans[f]`` forced in block ``f + 1`` -- per level,
    one store for the stems, and one gather + gate evaluation + store per
    gate kind for the pin faults, each reading its own block's operands.
    """
    machines = len(plans) + 1
    plane = program.new_values(machines * words)
    blocks = plane.reshape(program.rows, machines, words)
    # one words-wide cell per (row, block): cell row * machines + block
    cells = plane.reshape(program.rows * machines, words)

    stems: Dict[int, List[Tuple[int, _Plan]]] = {}
    pins: Dict[Tuple[int, GateKind], List[Tuple[int, _Plan]]] = {}
    for block, plan in enumerate(plans, start=1):
        if plan.operands is None:
            stems.setdefault(plan.level, []).append((block, plan))
        else:
            pins.setdefault((plan.level, plan.op), []).append((block, plan))
    stem_at: List[Optional[Tuple]] = [None] * (program.depth + 1)
    for level, members in stems.items():
        stem_at[level] = (
            np.array([plan.row * machines + b for b, plan in members], dtype=np.intp),
            np.array([plan.stuck for _, plan in members], dtype=np.uint64)[:, None],
        )
    pins_at: List[List[Tuple]] = [[] for _ in range(program.depth + 1)]
    for (level, op), members in pins.items():
        arity = max(len(plan.operands) for _, plan in members)
        pad = [_PAD_ROW.get(op, ZERO_ROW)]
        operands = np.array(
            [plan.operands + pad * (arity - len(plan.operands)) for _, plan in members],
            dtype=np.intp,
        )
        at = np.array([block for block, _ in members], dtype=np.intp)
        rows = np.array([plan.row for _, plan in members], dtype=np.intp)
        pins_at[level].append((op, operands * machines + at[:, None], rows * machines + at))

    def force(level: int, _plane) -> None:
        stem = stem_at[level]
        if stem is not None:
            where, stuck = stem
            cells[where] = stuck
        for op, operands, where in pins_at[level]:
            cells[where] = eval_group_ops(op, cells.take(operands, axis=0))

    return plane, blocks, force


def _pack_bits(bits, words: int):
    """Pack booleans ``(..., patterns)`` into uint64 words ``(..., words)``;
    bit ``p`` of the packed row is pattern ``p``'s value."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(packed.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8")


def grade_combinational(fsim, patterns: Patterns, faults: Sequence[Fault]) -> FaultSimResult:
    """The grading behind :meth:`FaultSimulator.run`.

    ``fsim`` is the :class:`FaultSimulator` whose netlist defines the
    grading; decisions and counters match its
    :meth:`~FaultSimulator.reference_run` bit for bit.  A pattern matrix
    is packed as it stands; mappings are read source by source.
    """
    program = compiled_program(fsim.netlist)
    names = program.source_names
    matrix = is_matrix(patterns, names)
    result = FaultSimResult(total=len(faults))
    alive: List[Fault] = list(faults)
    if len(patterns) == 0:
        result.undetected = alive
        return result
    if not alive:
        # the reference loop grades one batch before noticing it has no faults
        _BATCHES.inc()
        return result

    # ---- static per-fault lowering (one plan per distinct fault) ----
    plan_of: Dict[Fault, int] = {}
    plans: List[_Plan] = []
    for fault in alive:
        if fault not in plan_of:
            plan_of[fault] = len(plans)
            plans.append(_plan(program, fault))
    alive_idx: List[int] = [plan_of[fault] for fault in alive]

    total = len(patterns)
    W = word_count(total)
    if matrix:
        bits = patterns.astype(bool)
    else:
        try:
            bits = np.array(
                [[pattern[name] for name in names] for pattern in patterns], dtype=bool
            )
        except KeyError as missing:
            raise SimulationError(f"pattern misses source {missing.args[0]!r}") from None
    sources = _pack_bits(bits.T, W)
    masks = tail_masks(total)
    detect = np.zeros((len(plans), W), dtype=np.uint64)

    def sweep(need: List[int], w0: int, w1: int) -> None:
        """Grade the distinct plans ``need`` over words [w0, w1) into ``detect``."""
        flops = [i for i in need if plans[i].flop_pin]
        swept = [i for i in need if not plans[i].flop_pin]
        chunk = _faults_per_plane(program, w1 - w0)
        # flop-pin faults alone still need one good-machine pass
        for start in range(0, max(len(swept), 1), chunk):
            sel = swept[start : start + chunk]
            plane, blocks, force = _plane(program, [plans[i] for i in sel], w1 - w0)
            blocks[program.source_rows] = sources[:, None, w0:w1]
            program.eval(plane, after_level=force)
            observed = blocks[program.observe_rows]
            detect[sel, w0:w1] = (
                np.bitwise_or.reduce(observed[:, 1:] ^ observed[:, :1], axis=0)
                & masks[w0:w1]
            )
        if flops:
            captured = blocks[[plans[i].src_row for i in flops], 0]
            stuck = np.array([plans[i].stuck for i in flops], dtype=np.uint64)
            detect[flops, w0:w1] = (captured ^ stuck[:, None]) & masks[w0:w1]

    # Word 0 sees every fault, but most die there under random patterns,
    # so it gets a narrow one-word sweep; the survivors (the hard
    # faults) then get all remaining words in one wide sweep.
    sweep(list(range(len(plans))), 0, 1)

    # ---- replay the reference batch loop for counters and ordering ----
    for w in range(W):
        batch_start = w * 64
        count = min(64, total - batch_start)
        if w == 1:
            sweep(list(dict.fromkeys(alive_idx)), 1, W)
        det_col = detect[:, w].tolist()
        _BATCHES.inc()
        _EVENTS.inc(count * len(alive))
        still_alive: List[Fault] = []
        still_idx: List[int] = []
        dropped = 0
        for fault, i in zip(alive, alive_idx):
            word = det_col[i]
            if word:
                result.detected.append(fault)
                result.first_detection[fault] = batch_start + _lowest_bit(word)
                dropped += 1
            else:
                still_alive.append(fault)
                still_idx.append(i)
        _DROPPED.inc(dropped)
        alive = still_alive
        alive_idx = still_idx
        if not alive:
            break

    result.undetected = alive
    return result


# ----------------------------------------------------------------------
# sequential grading
# ----------------------------------------------------------------------
def _next_states(program: CompiledProgram, values):
    """Flop capture values ``(flops, words)`` from a value plane."""
    states = np.empty((len(program.flop_rows), values.shape[1]), dtype=np.uint64)
    if len(program.dff_pos):
        states[program.dff_pos] = values[program.dff_d_rows]
    if len(program.sdff_pos):
        d = values[program.sdff_d_rows]
        si = values[program.sdff_si_rows]
        se = values[program.sdff_se_rows]
        states[program.sdff_pos] = (d & ~se) | (si & se)
    return states


def _pack_inputs(program: CompiledProgram, sequences, length: int, words: int):
    """Per-cycle input words ``(length, inputs, words)``; bit ``p`` is
    sequence ``p``'s value, and a missing input reads 0 (no error), exactly
    like the reference's packer."""
    names = program.input_names
    packed = np.zeros((length, len(names), words), dtype=np.uint64)
    for cycle in range(length):
        bits = np.array(
            [[sequence[cycle].get(name, 0) for name in names] for sequence in sequences],
            dtype=bool,
        )
        packed[cycle] = _pack_bits(bits.T, words)
    return packed


def grade_sequence_group(
    netlist: GateNetlist,
    sequences: Sequence[Sequence[Pattern]],
    length: int,
    alive: List[Fault],
    result: FaultSimResult,
) -> List[Fault]:
    """The grading behind :func:`sequential_fault_grade`, checked
    against :func:`reference_grade_sequence_group`.

    Grades one packed group (<= ``SEQUENCE_PACK_LIMIT`` sequences of
    ``length`` cycles each) and returns the survivors; detected faults
    and ``first_detection`` cycles land in ``result`` in the reference's
    order.
    """
    program = compiled_program(netlist)
    Wg = word_count(len(sequences))
    cycle_words = _pack_inputs(program, sequences, length, Wg)
    masks = tail_masks(len(sequences))
    # flop input-pin faults never perturb the sequential simulation
    # (flops are sources, never re-evaluated): inert
    plans = [
        plan
        for plan in (_plan(program, fault) for fault in dict.fromkeys(alive))
        if not plan.flop_pin
    ]
    detected_cycle: Dict[Fault, int] = {}
    chunk = _faults_per_plane(program, Wg)
    for start in range(0, len(plans), chunk):
        _grade_plane(
            program, plans[start : start + chunk], cycle_words, masks, detected_cycle
        )

    survivors: List[Fault] = []
    for fault in alive:
        cycle = detected_cycle.get(fault)
        if cycle is None:
            survivors.append(fault)
        else:
            result.detected.append(fault)
            result.first_detection[fault] = cycle
    return survivors


def _grade_plane(
    program: CompiledProgram,
    plans: List[_Plan],
    cycle_words,
    masks,
    detected_cycle: Dict[Fault, int],
) -> None:
    """Run the good machine (block 0) and ``plans[f]`` (block ``f + 1``)
    on one plane through every cycle, recording first detections."""
    plane, blocks, force = _plane(program, plans, cycle_words.shape[-1])
    state = np.zeros((len(program.flop_rows), plane.shape[1]), dtype=np.uint64)
    pending = np.ones(len(plans), dtype=bool)
    for cycle, words in enumerate(cycle_words):
        blocks[program.input_rows] = words[:, None, :]
        plane[program.flop_rows] = state
        program.eval(plane, after_level=force)
        outputs = blocks[program.output_rows]
        hits = (((outputs[:, 1:] ^ outputs[:, :1]) & masks) != 0).any(axis=(0, 2))
        for f in np.flatnonzero(hits & pending).tolist():
            detected_cycle[plans[f].fault] = cycle
        pending &= ~hits
        if not pending.any():
            break
        state = _next_states(program, plane)
