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

Every faulty machine lives on the *word axis*: a chunk of F faults runs
as one ``(rows, F * W)`` value plane in which word block ``f`` (columns
``f*W`` to ``(f+1)*W``) is fault ``f``'s machine, so the compiled program
evaluates all of them in one pass per level and a fault is forced by
writing its row inside its own block.

Combinational grading keeps the reference's batch structure (64
patterns per batch, fault dropping between batches -- anything coarser
would change which faults are still alive when) but replaces its
per-fault work with whole-fault-list vector ops: one gather computes
every stem fault's activation, one padded gather per gate kind computes
every pin fault's forced value, and only the faults that actually
activate enter a dense plane -- the good plane tiled once per fault --
whose faulty rows are forced between levels.  A cheap replay of the
reference batch loop then re-derives the exact counters and orderings.

Sequential grading puts the good machine in block 0 of the same plane
(fault ``f`` in block ``f + 1``) and runs every machine cycle by cycle
with carried per-block state, mirroring the reference's per-fault
:class:`SequentialSimulator` semantics (flop input-pin faults are inert
there, stem faults force their row every cycle, combinational pin faults
are recomputed from the *faulty* block because corrupted state feeds
back).

One documented divergence: the reference discovers a pattern that
misses a source lazily, batch by batch, so on malformed input it may
raise about a different source than the kernel (which packs name-major).
Well-formed pattern sets behave identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.faults.simulator import FaultSimResult, Pattern, _lowest_bit
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.kernel import (
    ALL_ONES,
    CompiledProgram,
    _PAD_ROW,
    ONE_ROW,
    ZERO_ROW,
    compiled_program,
    eval_group_ops,
    int_to_words,
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

# fault plan kinds
_STEM = 0  # output-stem fault: force the gate's row to the stuck word
_PIN = 1  # combinational input-pin fault: recompute the gate with one pin forced
_FLOP_PIN = 2  # flop input-pin fault: seen at scan capture, inert in sequences


def _faults_per_plane(program: CompiledProgram, words: int) -> int:
    """Faults per ``(rows, faults * words)`` plane: at most :data:`FAULT_CHUNK`,
    and fewer (but at least 16) where the plane would pass ~64 MB, so wide
    pattern sets stay in cache."""
    return min(FAULT_CHUNK, max(16, (64 << 20) // (program.rows * words * 8)))


class _Plan:
    """Per-fault lowering: how to force one fault into a value plane."""

    __slots__ = (
        "fault", "kind", "row", "level", "stuck", "gate_kind", "fanin_rows",
        "pin_row", "src_row",
    )

    def __init__(self, program: CompiledProgram, fault: Fault) -> None:
        gate = program.netlist.gate(fault.gate)
        self.fault = fault
        self.stuck = np.uint64(ALL_ONES if fault.stuck else 0)
        self.row = program.row[fault.gate]
        self.level = program.level[fault.gate]
        self.gate_kind = gate.kind
        self.fanin_rows = None
        self.pin_row = -1
        self.src_row = -1
        if fault.pin is None:
            self.kind = _STEM
        elif gate.kind in STATE_KINDS:
            self.kind = _FLOP_PIN
            self.src_row = program.row[gate.fanins[fault.pin]]
        else:
            self.kind = _PIN
            # the faulty pin reads the reserved constant row of its stuck
            # value, so one gather yields the forced operands
            rows = [program.row[f] for f in gate.fanins]
            self.pin_row = rows[fault.pin]
            rows[fault.pin] = ONE_ROW if fault.stuck else ZERO_ROW
            self.fanin_rows = rows


def _plan(program: CompiledProgram, fault: Fault) -> _Plan:
    """The fault's plan, cached on the program (gradings re-use faults)."""
    plan = program.plan_cache.get(fault)
    if plan is None:
        plan = program.plan_cache[fault] = _Plan(program, fault)
    return plan


class _PinGroup:
    """Pin faults of one gate kind, padded to one arity.

    One gather + one vector gate evaluation yields every member's forced
    output word at once.  ``idx`` names each member's slot: its fault
    index in combinational grading, its word block in sequential grading.
    """

    __slots__ = ("kind", "idx", "fanin_rows", "pin_rows", "out_rows", "stuck")

    def __init__(self, kind: GateKind, plans: List[Tuple[int, _Plan]]) -> None:
        arity = max(len(plan.fanin_rows) for _, plan in plans)
        pad = _PAD_ROW.get(kind, ZERO_ROW)
        self.kind = kind
        self.idx = np.array([i for i, _ in plans], dtype=np.intp)
        self.fanin_rows = np.full((len(plans), arity), pad, dtype=np.intp)
        for j, (_, plan) in enumerate(plans):
            self.fanin_rows[j, : len(plan.fanin_rows)] = plan.fanin_rows
        self.pin_rows = np.array([plan.pin_row for _, plan in plans], dtype=np.intp)
        self.out_rows = np.array([plan.row for _, plan in plans], dtype=np.intp)
        self.stuck = np.array([plan.stuck for _, plan in plans], dtype=np.uint64)


def grade_combinational(
    fsim, patterns: Sequence[Pattern], faults: Sequence[Fault]
) -> FaultSimResult:
    """The grading behind :meth:`FaultSimulator.run`.

    ``fsim`` is the :class:`FaultSimulator` whose netlist and observe
    set define the grading; decisions and counters match its
    :meth:`~FaultSimulator.reference_run` bit for bit.
    """
    netlist: GateNetlist = fsim.netlist
    program = compiled_program(netlist)
    result = FaultSimResult(total=len(faults))
    alive: List[Fault] = list(faults)
    if not patterns:
        result.undetected = alive
        return result
    if not alive:
        # the reference loop grades one batch before noticing it has no faults
        _BATCHES.inc()
        return result

    # ---- static per-fault lowering (one plan per distinct fault) ----
    plan_of: Dict[Fault, int] = {}
    plan_list: List[_Plan] = []
    for fault in alive:
        if fault not in plan_of:
            plan_of[fault] = len(plan_list)
            plan_list.append(_plan(program, fault))
    n_plans = len(plan_list)
    alive_idx: List[int] = [plan_of[fault] for fault in alive]

    stems = [(i, p) for i, p in enumerate(plan_list) if p.kind is _STEM]
    flops = [(i, p) for i, p in enumerate(plan_list) if p.kind is _FLOP_PIN]
    stem_idx = np.array([i for i, _ in stems], dtype=np.intp)
    stem_rows = np.array([p.row for _, p in stems], dtype=np.intp)
    stem_stuck = np.array([p.stuck for _, p in stems], dtype=np.uint64)
    flop_idx = np.array([i for i, _ in flops], dtype=np.intp)
    flop_rows = np.array([p.src_row for _, p in flops], dtype=np.intp)
    flop_stuck = np.array([p.stuck for _, p in flops], dtype=np.uint64)
    by_kind: Dict[GateKind, List[Tuple[int, _Plan]]] = {}
    for i, plan in enumerate(plan_list):
        if plan.kind is _PIN:
            by_kind.setdefault(plan.gate_kind, []).append((i, plan))
    pin_groups = [_PinGroup(kind, plans) for kind, plans in by_kind.items()]

    rows_of = np.array([p.row for p in plan_list], dtype=np.intp)
    levels_of = np.array([p.level for p in plan_list], dtype=np.intp)
    obs_rows = np.array(
        sorted(program.row[name] for name in fsim._observe if name in program.row),
        dtype=np.intp,
    )

    # ---- good machine, all batches in one wide evaluation ----
    # (the reference re-simulates per 64-pattern batch; the good
    # machine has no dropping dependency, so one W-word pass is exact)
    total = len(patterns)
    W = word_count(total)
    good_all = program.new_values(W)
    for name in program.source_names:
        word = 0
        for position, pattern in enumerate(patterns):
            try:
                if pattern[name]:
                    word |= 1 << position
            except KeyError:
                raise SimulationError(
                    f"pattern misses source {name!r}"
                ) from None
        good_all[program.row[name], :] = int_to_words(word, W)
    program.eval(good_all)

    # ---- activation + forced output value, every fault x every word ----
    masks_all = tail_masks(total)
    act = np.zeros((n_plans, W), dtype=bool)
    detect = np.zeros((n_plans, W), dtype=np.uint64)
    forced = np.zeros((n_plans, W), dtype=np.uint64)
    if len(stem_idx):
        gv = good_all[stem_rows, :]
        act[stem_idx] = ((gv ^ stem_stuck[:, None]) & masks_all) != 0
        forced[stem_idx] = stem_stuck[:, None]
    if len(flop_idx):
        # observed directly at scan capture; never activates a cone
        detect[flop_idx] = (good_all[flop_rows, :] ^ flop_stuck[:, None]) & masks_all
    for group in pin_groups:
        # a pin fault's gate reads only fault-free upstream values, so
        # its forced output comes from the good plane alone
        fv = eval_group_ops(group.kind, good_all[group.fanin_rows])
        act[group.idx] = (
            (((good_all[group.pin_rows, :] ^ group.stuck[:, None]) & masks_all) != 0)
            & (((fv ^ good_all[group.out_rows, :]) & masks_all) != 0)
        )
        forced[group.idx] = fv

    def dense_sweep(need: List[int], w0: int, w1: int) -> None:
        """Propagate faults ``need`` over words [w0, w1) into ``detect``.

        Tiles the good plane once per fault -- block ``j`` is fault
        ``need[j]`` -- forces each fault's row inside its block between
        levels, re-evaluates everything downstream, and takes the detect
        word as the OR over observed rows of (faulty XOR good).  Nets
        outside the fault's fanout cone see identical inputs and
        contribute exactly zero, so no explicit cone masking is needed
        for bit-identity with the reference's overlay propagation.
        """
        Wc = w1 - w0
        good = good_all[:, w0:w1]
        chunk = _faults_per_plane(program, Wc)
        for start in range(0, len(need), chunk):
            sel = np.array(need[start : start + chunk], dtype=np.intp)
            plane = np.tile(good, (1, len(sel)))
            blocks = plane.reshape(program.rows, len(sel), Wc)
            lv, rw, fv = levels_of[sel], rows_of[sel], forced[sel][:, w0:w1]
            by_level: Dict[int, Tuple] = {}
            for level in np.unique(lv):
                at = np.flatnonzero(lv == level)
                by_level[int(level)] = (rw[at], at, fv[at])

            def force(level: int, _plane) -> None:
                entry = by_level.get(level)
                if entry is not None:
                    frows, fblocks, fvals = entry
                    blocks[frows, fblocks] = fvals

            program.eval(plane, after_level=force)
            if len(obs_rows):
                diff = blocks[obs_rows] ^ good[obs_rows][:, None, :]
                detect[sel, w0:w1] = (
                    np.bitwise_or.reduce(diff, axis=0) & masks_all[w0:w1]
                )

    # Word 0 sees every fault, but most die there under random patterns,
    # so it gets a narrow one-word sweep; the survivors (the hard
    # faults) then get all remaining words in one wide sweep.
    dense_sweep(list(dict.fromkeys(i for i in alive_idx if act[i, 0])), 0, 1)
    swept_tail = W == 1

    # ---- replay the reference batch loop for counters and ordering ----
    for w in range(W):
        batch_start = w * 64
        count = min(64, total - batch_start)
        if w and not swept_tail:
            tail = act[:, w:].any(axis=1)
            dense_sweep(list(dict.fromkeys(i for i in alive_idx if tail[i])), 1, W)
            swept_tail = True
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
    packed = np.zeros((length, len(names), words * 8), dtype=np.uint8)
    for cycle in range(length):
        bits = np.array(
            [[sequence[cycle].get(name, 0) for name in names] for sequence in sequences],
            dtype=bool,
        )
        cycle_bytes = np.packbits(bits.T, axis=-1, bitorder="little")
        packed[cycle, :, : cycle_bytes.shape[1]] = cycle_bytes
    return packed.view("<u8")


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
        if plan.kind is not _FLOP_PIN
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
    machines = len(plans) + 1
    Wg = cycle_words.shape[-1]
    plane = program.new_values(machines * Wg)
    blocks = plane.reshape(program.rows, machines, Wg)
    # one Wg-word cell per (row, block): cell row * machines + block
    cells = plane.reshape(program.rows * machines, Wg)

    # per-level forcing: one store for the stems, one gather + gate
    # evaluation + store per gate kind for the pin faults
    stems: Dict[int, List[Tuple[int, _Plan]]] = {}
    pins: Dict[Tuple[int, GateKind], List[Tuple[int, _Plan]]] = {}
    for block, plan in enumerate(plans, start=1):
        if plan.kind is _STEM:
            stems.setdefault(plan.level, []).append((block, plan))
        else:
            pins.setdefault((plan.level, plan.gate_kind), []).append((block, plan))
    stem_at: List[Optional[Tuple]] = [None] * (program.depth + 1)
    for level, members in stems.items():
        stem_at[level] = (
            np.array([plan.row * machines + b for b, plan in members], dtype=np.intp),
            np.array([plan.stuck for _, plan in members], dtype=np.uint64)[:, None],
        )
    pins_at: List[List[Tuple]] = [[] for _ in range(program.depth + 1)]
    for (level, kind), members in pins.items():
        group = _PinGroup(kind, members)
        pins_at[level].append((
            kind,
            group.fanin_rows * machines + group.idx[:, None],
            group.out_rows * machines + group.idx,
        ))

    def force(level: int, _plane) -> None:
        stem = stem_at[level]
        if stem is not None:
            where, stuck = stem
            cells[where] = stuck
        # corrupted state feeds back, so each pin fault's gate reads its
        # own (faulty) block -- unlike the combinational shortcut
        for kind, operands, where in pins_at[level]:
            cells[where] = eval_group_ops(kind, cells.take(operands, axis=0))

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
