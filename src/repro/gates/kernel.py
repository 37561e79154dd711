"""Compiled numpy simulation kernels: levelized netlists as flat programs.

The scalar simulators walk the netlist gate by gate with Python-int
words -- perfectly general, but every gate evaluation is an interpreter
step.  This module lowers a levelized :class:`GateNetlist` once into a
*flat numpy program*: contiguous fanin index arrays grouped by (level,
gate kind), evaluated with vectorized ``uint64`` bitwise ops over
``(rows, W)`` value planes (64 patterns per word, so a W=8 plane carries
512 patterns per pass).  Many machines share one plane along the word
axis: :mod:`repro.faults.kernel` gives the good machine and each faulty
machine its own block of words and forces each fault inside its block
between levels, so one pass evaluates hundreds of machines.

Fault grading always runs these programs; one-machine simulation
(:class:`repro.gates.simulator.CombinationalSimulator`) stays on the
scalar evaluator, which is faster for a single machine.  The scalar
fault graders in :mod:`repro.faults.simulator` are the bit-identity
oracle the kernels are tested against: the same decisions and
``faultsim.*``/``atpg.*`` counters (see DESIGN.md, "Vectorized kernels").

Value-plane convention: row 0 is a reserved all-zeros word, row 1 a
reserved all-ones word (identity padding for variable-arity gates);
every gate owns one row from 2 up.  Bits beyond the pattern count are
*unspecified* -- producers never mask mid-program, consumers mask at
extraction -- which keeps every op a pure full-word bitwise instruction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gates.cells import SOURCE_KINDS, GateKind
from repro.gates.levelize import depth_levels
from repro.gates.netlist import GateNetlist, NetlistCache
from repro.obs import METRICS, profile_section

_COMPILES = METRICS.counter("kernel.compiles")
_CACHE_REUSES = METRICS.counter("kernel.cache.reuses")
_WORDS = METRICS.counter("kernel.words_evaluated")

#: reserved value-plane rows (identity padding for variable-arity gates)
ZERO_ROW = 0
ONE_ROW = 1

ALL_ONES = 0xFFFFFFFFFFFFFFFF


def word_count(pattern_count: int) -> int:
    """Words needed for ``pattern_count`` packed patterns (64 per word)."""
    if pattern_count <= 0:
        raise SimulationError("pattern_count must be positive")
    return (pattern_count + 63) // 64


def tail_masks(pattern_count: int):
    """Per-word valid-bit masks for ``pattern_count`` patterns, shape (W,)."""
    W = word_count(pattern_count)
    masks = [ALL_ONES] * W
    tail = pattern_count - (W - 1) * 64
    if tail < 64:
        masks[W - 1] = (1 << tail) - 1
    return np.array(masks, dtype=np.uint64)


def int_to_words(value: int, words: int):
    """Split a packed Python-int word into ``words`` uint64 limbs (LSB first)."""
    return np.array(
        [(value >> (64 * w)) & ALL_ONES for w in range(words)], dtype=np.uint64
    )


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------
class _OpGroup:
    """One (level, kind) group: contiguous outputs, padded fanin matrix."""

    __slots__ = ("kind", "out_rows", "fanin_rows")

    def __init__(self, kind: GateKind, out_rows, fanin_rows) -> None:
        self.kind = kind
        self.out_rows = out_rows
        self.fanin_rows = fanin_rows


#: identity row used to pad a variable-arity gate's fanin list
_PAD_ROW = {
    GateKind.AND: ONE_ROW,
    GateKind.NAND: ONE_ROW,
    GateKind.OR: ZERO_ROW,
    GateKind.NOR: ZERO_ROW,
}

#: deterministic evaluation order for kinds within one level
_KIND_ORDER = {kind: i for i, kind in enumerate(GateKind)}


def eval_group_ops(kind: GateKind, ops):
    """Evaluate one gate kind over gathered operands ``(..., A, W)``.

    Padding slots (identity rows) are already part of ``ops``; results
    carry unspecified bits beyond the pattern count, masked by callers
    at extraction.
    """
    if kind in (GateKind.BUF, GateKind.OUTPUT):
        return ops[..., 0, :]
    if kind is GateKind.NOT:
        return ~ops[..., 0, :]
    if kind is GateKind.AND:
        return np.bitwise_and.reduce(ops, axis=-2)
    if kind is GateKind.OR:
        return np.bitwise_or.reduce(ops, axis=-2)
    if kind is GateKind.NAND:
        return ~np.bitwise_and.reduce(ops, axis=-2)
    if kind is GateKind.NOR:
        return ~np.bitwise_or.reduce(ops, axis=-2)
    if kind is GateKind.XOR:
        return ops[..., 0, :] ^ ops[..., 1, :]
    if kind is GateKind.XNOR:
        return ~(ops[..., 0, :] ^ ops[..., 1, :])
    if kind is GateKind.MUX2:
        select = ops[..., 2, :]
        return (ops[..., 0, :] & ~select) | (ops[..., 1, :] & select)
    raise SimulationError(f"cannot compile gate kind {kind.value}")


class CompiledProgram:
    """A levelized :class:`GateNetlist` lowered to flat numpy arrays.

    Immutable once built; safe to share across simulators on the same
    netlist (mirroring the shared fanout-cone cache).  All structural
    queries the fault kernel needs -- rows, levels, source groups, flop
    state plumbing -- are precomputed here so a grading sweep touches
    only ndarray ops.
    """

    def __init__(self, netlist: GateNetlist) -> None:
        self.netlist = netlist
        names = list(netlist.names())
        #: gate name -> value-plane row (rows 0/1 are reserved)
        self.row: Dict[str, int] = {name: i + 2 for i, name in enumerate(names)}
        self.names: List[str] = names
        self.rows = len(names) + 2

        #: gate name -> level (sources 0, gates 1 + max fanin level)
        level = dict(depth_levels(netlist))
        self.level: Dict[str, int] = level
        self.depth = max(level.values(), default=0)

        # ---- (level, kind) op groups with identity-padded fanins ----
        grouped: Dict[Tuple[int, GateKind], List[str]] = {}
        for name in names:
            gate = netlist.gate(name)
            if gate.kind in SOURCE_KINDS:
                continue
            grouped.setdefault((level[name], gate.kind), []).append(name)
        self.levels: List[List[_OpGroup]] = [[] for _ in range(self.depth + 1)]
        op_outputs = 0
        for (lvl, kind) in sorted(
            grouped, key=lambda key: (key[0], _KIND_ORDER[key[1]])
        ):
            members = grouped[(lvl, kind)]
            arity = max(len(netlist.gate(m).fanins) for m in members)
            pad = _PAD_ROW.get(kind)
            fanin_rows = np.full((len(members), arity), ZERO_ROW, dtype=np.intp)
            out_rows = np.empty(len(members), dtype=np.intp)
            for i, member in enumerate(members):
                gate = netlist.gate(member)
                out_rows[i] = self.row[member]
                for a in range(arity):
                    if a < len(gate.fanins):
                        fanin_rows[i, a] = self.row[gate.fanins[a]]
                    else:
                        if pad is None:
                            raise SimulationError(
                                f"gate {member!r} of kind {kind.value} has "
                                f"{len(gate.fanins)} fanins, group arity {arity}"
                            )
                        fanin_rows[i, a] = pad
            self.levels[lvl].append(_OpGroup(kind, out_rows, fanin_rows))
            op_outputs += len(members)
        #: gate outputs computed per full eval (feeds kernel.words_evaluated)
        self.op_outputs = op_outputs

        # ---- source groups ----
        def rows_of(kinds) -> "np.ndarray":
            return np.array(
                [self.row[g.name] for g in netlist.gates() if g.kind in kinds],
                dtype=np.intp,
            )

        self.input_rows = rows_of((GateKind.INPUT,))
        self.input_names = [g.name for g in netlist.inputs]
        self.const1_rows = rows_of((GateKind.CONST1,))
        #: the netlist's sources, in :attr:`GateNetlist.sources` order
        self.source_names = netlist.sources
        self.source_rows = np.array(
            [self.row[name] for name in self.source_names], dtype=np.intp
        )

        # ---- flop state plumbing (netlist.flops order) ----
        flops = netlist.flops
        self.flop_rows = np.array(
            [self.row[f.name] for f in flops], dtype=np.intp
        )
        dff_pos = [i for i, f in enumerate(flops) if f.kind is GateKind.DFF]
        sdff_pos = [i for i, f in enumerate(flops) if f.kind is GateKind.SDFF]
        self.dff_pos = np.array(dff_pos, dtype=np.intp)
        self.dff_d_rows = np.array(
            [self.row[flops[i].fanins[0]] for i in dff_pos], dtype=np.intp
        )
        self.sdff_pos = np.array(sdff_pos, dtype=np.intp)
        self.sdff_d_rows = np.array(
            [self.row[flops[i].fanins[0]] for i in sdff_pos], dtype=np.intp
        )
        self.sdff_si_rows = np.array(
            [self.row[flops[i].fanins[1]] for i in sdff_pos], dtype=np.intp
        )
        self.sdff_se_rows = np.array(
            [self.row[flops[i].fanins[2]] for i in sdff_pos], dtype=np.intp
        )
        self.output_rows = np.array(
            [self.row[g.name] for g in netlist.outputs], dtype=np.intp
        )
        self.output_names = [g.name for g in netlist.outputs]
        #: observation points of combinational (full-scan) fault grading,
        #: ascending: every primary output and every flop's D net -- the
        #: set PODEM propagates to
        self.observe_rows = np.array(
            sorted({*self.output_rows.tolist(), *(self.row[f.fanins[0]] for f in flops)}),
            dtype=np.intp,
        )

        #: per-fault lowering cache, populated by repro.faults.kernel --
        #: lives here so it shares the program's lifetime and cache policy
        self.plan_cache: Dict[object, object] = {}

    # ------------------------------------------------------------------
    def new_values(self, words: int):
        """A fresh ``(rows, words)`` value plane with reserved and constant
        rows filled."""
        values = np.zeros((self.rows, words), dtype=np.uint64)
        values[ONE_ROW] = np.uint64(ALL_ONES)
        if len(self.const1_rows):
            values[self.const1_rows] = np.uint64(ALL_ONES)
        return values

    def eval(
        self,
        values,
        after_level: Optional[Callable[[int, object], None]] = None,
    ) -> None:
        """Run the flat program over a ``(rows, words)`` plane in place.

        ``after_level(level, values)`` -- when given -- is called once
        for level 0 *before* any op (source-row forcing) and once after
        each computed level (stem forcing / faulty-pin corrections must
        land before the next level reads the row).
        """
        _WORDS.inc(self.op_outputs * values.shape[1])
        if after_level is not None:
            after_level(0, values)
        for lvl in range(1, self.depth + 1):
            for group in self.levels[lvl]:
                values[group.out_rows] = eval_group_ops(
                    group.kind, values.take(group.fanin_rows, axis=0)
                )
            if after_level is not None:
                after_level(lvl, values)


# ----------------------------------------------------------------------
# compiled-program cache
# ----------------------------------------------------------------------
_PROGRAMS: "NetlistCache[CompiledProgram]" = NetlistCache()


def compiled_program(netlist: GateNetlist) -> CompiledProgram:
    """The netlist's compiled program, compiled once per netlist.

    Cached per netlist object under the :class:`NetlistCache` rule:
    every fault simulator, ATPG pass, and compaction run on the same
    netlist shares one program, and an edited netlist recompiles.  ``kernel.compiles`` / ``kernel.cache.reuses`` count
    cache behaviour; :func:`clear_kernel_caches` restores cold-state
    counting for the bench harness.
    """
    program = _PROGRAMS.get(netlist)
    if program is not None:
        _CACHE_REUSES.inc()
        return program
    return _PROGRAMS.get(netlist, lambda: _compile(netlist))


def _compile(netlist: GateNetlist) -> CompiledProgram:
    with profile_section("kernel.compile"):
        program = CompiledProgram(netlist)
    _COMPILES.inc()
    return program


def clear_kernel_caches() -> None:
    """Drop every cached compiled program (cache-warmth reset, not semantic)."""
    _PROGRAMS.clear()
