"""Compiled simulation programs: levelized netlists as per-level gate groups.

The scalar simulator walks the netlist gate by gate through a dict of
words.  This module lowers a levelized :class:`GateNetlist` once into a
*program*: for every level, one group per gate kind, each a tuple of
``(output row, fanin rows...)`` steps run by one tight loop over a list
of Python ints, the *value plane* (one int per row).  An int is as wide
as its plane: :mod:`repro.faults.kernel` lays the good machine and one
machine per fault side by side in every row, each machine a block of
one bit per pattern, so one pass of the program evaluates every machine
of the plane.

Fault grading always runs these programs; one-machine simulation
(:class:`repro.gates.simulator.CombinationalSimulator`) stays on the
scalar evaluator, and a program's good machine computes the same values
as it does (see DESIGN.md, "Fault-grading kernels").

Plane convention: row 0 holds 0 and row 1 the plane's all-ones mask
(the identity operands of wide gates; NOT is XOR with it, so no value
ever leaves the plane's width); every gate owns one row from 2 up.  A
wide AND/OR/NAND/NOR gate is lowered to two-input steps on its own
output row, and NAND/NOR/XNOR to their positive kind plus a NOT step
there, so every group loop has one fixed arity.  A MUX2 whose select is
a CONST0/CONST1 gate cannot switch: it is lowered as a BUF of the input
that constant picks, and :attr:`CompiledProgram.folded` lists it under
the constant's row, so a plane that forces that row runs it again as a
MUX2.

Sequential grading runs a program's :attr:`~CompiledProgram.cone`
instead: the levels kept to the rows some primary output reads, within a
cycle or across cycles through a flop's D input.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.gates.cells import SOURCE_KINDS, STATE_KINDS, GateKind
from repro.gates.levelize import depth_levels
from repro.gates.netlist import GateNetlist, NetlistCache
from repro.obs import METRICS, profile_section

_COMPILES = METRICS.counter("kernel.compiles")
_CACHE_REUSES = METRICS.counter("kernel.cache.reuses")
#: machine-gate evaluations: gates times machines per pass
_WORDS = METRICS.counter("kernel.words_evaluated")

#: reserved value-plane rows: all zeros, and the plane's all-ones mask
ZERO_ROW = 0
ONE_ROW = 1

Values = List[int]
#: one group: the loop of its gate kind, and that loop's steps
Group = Tuple[Callable[[Values, int, tuple], None], tuple]


# ----------------------------------------------------------------------
# one loop per gate kind
# ----------------------------------------------------------------------
def _buf(v: Values, ones: int, steps: tuple) -> None:
    for out, a in steps:
        v[out] = v[a]


def _not(v: Values, ones: int, steps: tuple) -> None:
    for out, a in steps:
        v[out] = v[a] ^ ones


def _and(v: Values, ones: int, steps: tuple) -> None:
    for out, a, b in steps:
        v[out] = v[a] & v[b]


def _or(v: Values, ones: int, steps: tuple) -> None:
    for out, a, b in steps:
        v[out] = v[a] | v[b]


def _xor(v: Values, ones: int, steps: tuple) -> None:
    for out, a, b in steps:
        v[out] = v[a] ^ v[b]


def _mux2(v: Values, ones: int, steps: tuple) -> None:
    for out, d0, d1, select in steps:
        low = v[d0]
        v[out] = low ^ ((low ^ v[d1]) & v[select])


def force(v: Values, ones: int, steps: tuple) -> None:
    """The forcing store: row ``out`` takes ``v[src] & keep | put``."""
    for out, src, keep, put in steps:
        v[out] = v[src] & keep | put


#: the kinds' loops in their run order within one level: NOT runs last,
#: after the steps it inverts in place (NAND, NOR, XNOR)
_LOOPS = (_buf, _and, _or, _xor, _mux2, _not)
_NOT = 5

#: kind -> (index of its loop in _LOOPS, identity operand row of a wide
#: kind or None, whether a NOT step follows on the output row)
_LOWERING = {
    GateKind.BUF: (0, None, False),
    GateKind.OUTPUT: (0, None, False),
    GateKind.AND: (1, ONE_ROW, False),
    GateKind.NAND: (1, ONE_ROW, True),
    GateKind.OR: (2, ZERO_ROW, False),
    GateKind.NOR: (2, ZERO_ROW, True),
    GateKind.XOR: (3, None, False),
    GateKind.XNOR: (3, None, True),
    GateKind.MUX2: (4, None, False),
    GateKind.NOT: (_NOT, None, False),
}


def lower(
    groups: Dict[Tuple[int, int], List[tuple]],
    level: int,
    kind: GateKind,
    out: int,
    fanins: Sequence[int],
) -> None:
    """Append the steps that compute one gate into row ``out`` to
    ``groups[level, loop]``, ``loop`` indexing the kinds' run order.

    A wide gate folds its fanins two at a time on its own output row
    (padded with its identity row up to two); NAND, NOR and XNOR are
    AND, OR and XOR followed by a NOT step on that row.
    """
    try:
        loop, identity, invert = _LOWERING[kind]
    except KeyError:
        raise SimulationError(f"cannot compile gate kind {kind.value}") from None
    if identity is None:
        steps = [(out, *fanins)]
    else:
        rows = [*fanins, identity, identity][: max(2, len(fanins))]
        steps = [(out, rows[0], rows[1])] + [(out, out, row) for row in rows[2:]]
    groups.setdefault((level, loop), []).extend(steps)
    if invert:
        groups.setdefault((level, _NOT), []).append((out, out))


def by_level(groups: Dict[Tuple[int, int], List[tuple]], depth: int) -> List[List[Group]]:
    """Lowered ``groups`` as the kind groups of levels 0 to ``depth``,
    each level's loops in run order."""
    levels: List[List[Group]] = [[] for _ in range(depth + 1)]
    for level, loop in sorted(groups):
        levels[level].append((_LOOPS[loop], tuple(groups[level, loop])))
    return levels


def tuple_getter(keys: Sequence[Any]) -> Callable[[Any], tuple]:
    """``items -> (items[key] for key in keys)`` as a tuple, through one
    :func:`operator.itemgetter`; a missing key raises as indexing does."""
    if len(keys) == 1:
        one = itemgetter(keys[0])
        return lambda items: (one(items),)
    return itemgetter(*keys) if keys else lambda items: ()


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------
class CompiledProgram:
    """A levelized :class:`GateNetlist` lowered to per-level kind groups.

    Immutable once built; safe to share across simulators on the same
    netlist.  Every structural fact the fault kernel needs -- rows,
    levels, each gate's kind and fanin rows, sources, flop capture and
    observation points -- is precomputed here and indexed by row; the
    sequential :attr:`cone` is derived on first use.  A program keeps
    no reference to its netlist, so the cache entry dies with it.
    """

    def __init__(self, netlist: GateNetlist) -> None:
        names = list(netlist.names())
        #: gate name -> value-plane row (rows 0/1 are reserved)
        self.row: Dict[str, int] = {name: i + 2 for i, name in enumerate(names)}
        self.rows = len(names) + 2

        level = depth_levels(netlist)
        self.depth = max(level.values(), default=0)
        row = self.row
        #: per row: (level, kind, fanin rows); None for the reserved rows
        self.gate_at: List[Optional[Tuple[int, GateKind, Tuple[int, ...]]]] = [None, None]
        groups: Dict[Tuple[int, int], List[tuple]] = {}
        flops = []
        self.input_names: List[str] = []
        #: the netlist's sources, in :attr:`GateNetlist.sources` order
        self.source_names: List[str] = []
        self.const1_rows: List[int] = []
        self.output_rows: List[int] = []
        #: constant row -> the rows of the MUX2s it selects: each runs as a
        #: BUF of the input the constant picks (a plane forcing that row
        #: reruns them as MUX2s)
        self.folded: Dict[int, List[int]] = {}
        #: gates computed per pass, folded muxes included (feeds
        #: kernel.words_evaluated on a combinational pass)
        self.gates = 0
        for gate in netlist.gates():
            kind = gate.kind
            fanins = tuple(map(row.__getitem__, gate.fanins))
            at = level[gate.name]
            self.gate_at.append((at, kind, fanins))
            if kind is GateKind.INPUT:
                self.source_names.append(gate.name)
                self.input_names.append(gate.name)
            elif kind in STATE_KINDS:
                self.source_names.append(gate.name)
                flops.append(gate)
            elif kind is GateKind.CONST1:
                self.const1_rows.append(row[gate.name])
            elif kind is not GateKind.CONST0:
                select = netlist.gate(gate.fanins[2]).kind if kind is GateKind.MUX2 else None
                if select is GateKind.CONST0 or select is GateKind.CONST1:
                    picked = fanins[1 if select is GateKind.CONST1 else 0]
                    lower(groups, at, GateKind.BUF, row[gate.name], (picked,))
                    self.folded.setdefault(fanins[2], []).append(row[gate.name])
                else:
                    lower(groups, at, kind, row[gate.name], fanins)
                self.gates += 1
                if kind is GateKind.OUTPUT:
                    self.output_rows.append(row[gate.name])
        #: per level, its kind groups in run order (level 0, the sources, has none)
        self.levels = by_level(groups, self.depth)
        #: the whole program in run order
        self.groups: List[Group] = [group for level in self.levels for group in level]

        self.input_rows = [row[name] for name in self.input_names]
        self.source_rows = [row[name] for name in self.source_names]
        #: (flop row, D row) per flop, in capture order
        self.dff_captures = [(row[f.name], row[f.fanins[0]]) for f in flops]
        #: observation points of combinational (full-scan) fault grading,
        #: ascending: every primary output and every flop's D net -- the
        #: set PODEM propagates to
        self.observe_rows = sorted({*self.output_rows, *(row[f.fanins[0]] for f in flops)})

    # ------------------------------------------------------------------
    def new_values(self, ones: int, scratch: int = 0) -> Values:
        """A fresh plane of all-ones mask ``ones``, reserved and constant
        rows filled, every other row 0, plus ``scratch`` spare rows."""
        values = [0] * (self.rows + scratch)
        values[ONE_ROW] = ones
        for row in self.const1_rows:
            values[row] = ones
        return values

    def eval(
        self,
        values: Values,
        machines: int,
        groups: Optional[List[Group]] = None,
        gates: Optional[int] = None,
    ) -> None:
        """Run the program over a plane of ``machines`` machines in place,
        or ``groups`` instead: ``gates`` gates (the program's by default)
        with forcing spliced in."""
        _WORDS.inc((self.gates if gates is None else gates) * machines)
        ones = values[ONE_ROW]
        for loop, steps in self.groups if groups is None else groups:
            loop(values, ones, steps)

    @cached_property
    def cone(self) -> "Cone":
        """The program's sequential cone, derived on first use: a netlist
        graded only combinationally never pays for it."""
        return Cone(self)


class Cone:
    """The *sequential cone* of a program: every row a primary output
    reads within a cycle, or across cycles through a flop's D input, and
    the program kept to those rows.

    No value outside the cone reaches an output in any cycle, so
    sequential grading evaluates only the cone and gives a fault whose
    site lies outside it no machine.  The walk follows every fanin of a
    gate, the select and unpicked input of a folded mux included, so a
    plane that forces a constant in the cone finds its muxes' inputs
    evaluated.
    """

    def __init__(self, program: CompiledProgram) -> None:
        gate_at = program.gate_at
        rows: Set[int] = set()
        stack = list(program.output_rows)
        while stack:
            row = stack.pop()
            if row not in rows:
                rows.add(row)
                stack.extend(gate_at[row][2])
        #: the rows in the cone
        self.rows = frozenset(rows)
        #: per level, its kind groups kept to the steps computing a row in
        #: the cone; groups left empty are dropped
        self.levels: List[List[Group]] = [
            [
                (loop, kept)
                for loop, steps in level
                if (kept := tuple(step for step in steps if step[0] in rows))
            ]
            for level in program.levels
        ]
        #: constant row -> the rows of its folded muxes in the cone
        self.folded: Dict[int, List[int]] = {
            const: kept
            for const, muxes in program.folded.items()
            if (kept := [mux for mux in muxes if mux in rows])
        }
        #: gates computed per pass (feeds kernel.words_evaluated on a
        #: sequential pass)
        self.gates = sum(gate_at[row][1] not in SOURCE_KINDS for row in rows)
        captures = [(flop, d) for flop, d in program.dff_captures if flop in rows]
        #: the cone's flop rows, in capture order
        self.flop_rows = [flop for flop, _ in captures]
        self._capture = tuple_getter([d for _, d in captures])

    def clock(self, values: Values) -> None:
        """Load every flop row of the cone with the value its D captures."""
        for row, value in zip(self.flop_rows, self._capture(values)):
            values[row] = value


# ----------------------------------------------------------------------
# compiled-program cache
# ----------------------------------------------------------------------
_PROGRAMS: "NetlistCache[CompiledProgram]" = NetlistCache()


def compiled_program(netlist: GateNetlist) -> CompiledProgram:
    """The netlist's compiled program, compiled once per netlist.

    Cached per netlist object under the :class:`NetlistCache` rule:
    every fault simulator, ATPG pass, and compaction run on the same
    netlist shares one program, and an edited netlist recompiles.
    ``kernel.compiles`` / ``kernel.cache.reuses`` count cache behaviour;
    :func:`clear_kernel_caches` restores cold-state counting for the
    bench harness.
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
