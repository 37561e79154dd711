"""Fault grading over compiled programs on Python-int machine planes.

Every fault grading in the flow runs here: :meth:`FaultSimulator.run`
calls :func:`grade_combinational` and
:func:`~repro.faults.simulator.sequential_fault_grade` calls
:func:`grade_sequence_group`.  Each evaluates many machines per pass and
decides exactly as grading one faulty machine at a time would: the same
detected/undetected fault lists in the same order, the same
``first_detection`` indices, and the same ``faultsim.*`` counter values.
The scalar one-machine graders in ``tests/reference_graders.py`` are the
oracle the differential tests hold them to.

Both graders share one plane layout.  A chunk of F faults runs as one
plane of ``F + 1`` machines side by side in every row's int, each a
block of ``width`` bits (one per pattern or sequence): block 0 is the
good machine and block ``f + 1`` fault ``f``'s.  :func:`_forced` splices
the faults into the compiled program after their levels: a stem fault's
row keeps every other block and takes its stuck value in its own (one
``v & keep | put`` store per faulty row), and a pin fault's gate runs
again with the faulty pin read from a scratch row that holds the stuck
value in the fault's block.  A fault is detected where an observed row
differs from the good machine, replicated across the plane, in its
block.  Every forcing store and every detection step costs the whole
plane's width while every gate step costs a fixed overhead, so a plane
holds at most :data:`PLANE_BITS` bits and wider fault lists run as
several planes.

Combinational grading runs one batch loop: 64 patterns per batch,
each batch packed when it is reached (so a pattern missing a source
fails at its batch, after the batches before it were counted), fault
dropping between batches.  Upstream of a fault's site its block
equals the good machine, so a pin fault reads fault-free operands.
Flop input-pin faults get no block: they are observed at scan capture,
read off the good machine.

Sequential grading packs its whole stimulus set once, then runs every
machine cycle by cycle with its flops' state carried in its block, with
the semantics of one
:class:`SequentialSimulator` per fault (flop input-pin faults are inert
there, stem faults force their row every cycle, and a pin fault's gate
reads its own block, where corrupted state feeds back).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter, truth
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.faults.model import Fault, misfit
from repro.faults.simulator import (
    _BATCHES,
    _DROPPED,
    _EVENTS,
    FaultSimResult,
    Pattern,
    Patterns,
    is_words,
    pack_columns,
)
from repro.gates.cells import STATE_KINDS
from repro.gates.kernel import ONE_ROW, CompiledProgram, Group, by_level, compiled_program, force, lower
from repro.gates.netlist import GateNetlist

#: widest plane, in bits: the fastest of 4,096 to 32,768 on Table 3-shaped
#: and compaction-shaped gradings (README, "Fault-grading kernels")
PLANE_BITS = 8192

#: patterns per combinational batch: the fault-dropping step
BATCH = 64

#: a fault as the planes see it: (row, pin or None, stuck value, and for
#: a flop input-pin fault the row of the net its flop captures, else None)
Site = Tuple[int, Optional[int], int, Optional[int]]


def _sites(program: CompiledProgram, faults: Sequence[Fault]) -> List[Site]:
    """Each fault's site; a fault its gate cannot hold is a
    :class:`SimulationError` naming it and the netlist."""
    sites = []
    for fault in faults:
        at = program.row.get(fault.gate)
        if at is None:
            program.netlist.gate(fault.gate)  # raises the netlist's own error
        _, kind, fanins = program.gate_at[at]
        problem = misfit(fault, len(fanins), program.netlist)
        if problem:
            raise SimulationError(problem)
        captured = fanins[fault.pin] if fault.pin is not None and kind in STATE_KINDS else None
        sites.append((at, fault.pin, fault.stuck, captured))
    return sites


def _chunks(sites: List[Site], width: int) -> Iterator[List[int]]:
    """The indices of the sites that get a block (all but flop input
    pins), at most one plane's worth at a time; at least one chunk."""
    forced = [i for i, site in enumerate(sites) if site[3] is None]
    per_plane = max(1, PLANE_BITS // width - 1)
    for start in range(0, max(len(forced), 1), per_plane):
        yield forced[start : start + per_plane]


def _forced(program: CompiledProgram, sites: Sequence[Site], width: int) -> Tuple[List[Group], int]:
    """The program of a plane holding ``sites[f]`` in block ``f + 1``,
    and the scratch rows it needs beyond the program's own.

    After each level's own groups come its pin faults' gates again, over
    scratch rows that hold their faulty operands, and the muxes folded on
    a constant row a stem fault forces, as MUX2s; then one group of
    forcing stores: the level's stem faults, and the operand stores of
    the next level's pin faults.  Faults on one row (or one pin) share
    one store.
    """
    block = (1 << width) - 1
    ones = (1 << (width * (len(sites) + 1))) - 1
    stems: Dict[int, List[int]] = {}
    pins: Dict[Tuple[int, int], List[int]] = {}
    shift = 0
    for row, pin, stuck, _ in sites:
        shift += width
        mask = block << shift
        masks = stems if pin is None else pins
        key = row if pin is None else (row, pin)
        found = masks.get(key)
        if found is None:
            masks[key] = [mask, mask if stuck else 0]
        else:
            found[0] |= mask
            if stuck:
                found[1] |= mask

    gate_at = program.gate_at
    depth = program.depth
    stem_stores: List[List[tuple]] = [[] for _ in range(depth + 1)]
    operand_stores: List[List[tuple]] = [[] for _ in range(depth + 2)]
    reruns: Dict[Tuple[int, int], List[tuple]] = {}
    operands: Dict[int, List[int]] = {}
    scratch = program.rows
    for (row, pin), (where, put) in pins.items():
        level, _, fanins = gate_at[row]
        operand_stores[level].append((scratch, fanins[pin], ones ^ where, put))
        operands.setdefault(row, list(fanins))[pin] = scratch
        scratch += 1
    # a forced constant can switch the muxes the program folded on it
    for row in stems:
        for mux in program.folded.get(row, ()):
            operands.setdefault(mux, list(gate_at[mux][2]))
    for row, rows in operands.items():
        level, kind, _ = gate_at[row]
        lower(reruns, level, kind, row, rows)
    for row, (where, put) in stems.items():
        stem_stores[gate_at[row][0]].append((row, row, ones ^ where, put))
    rerun_at = by_level(reruns, depth)

    groups: List[Group] = []
    for level, own in enumerate(program.levels):
        groups += own
        groups += rerun_at[level]
        stores = stem_stores[level] + operand_stores[level + 1]
        if stores:
            groups.append((force, tuple(stores)))
    return groups, scratch - program.rows


def _plane(program: CompiledProgram, sites: Sequence[Site], width: int):
    """A fresh plane for ``sites``: ``(values, groups, machines, rep)``,
    where ``rep`` times a ``width``-bit word repeats it in every block."""
    groups, scratch = _forced(program, sites, width)
    machines = len(sites) + 1
    ones = (1 << (width * machines)) - 1
    return program.new_values(ones, scratch), groups, machines, ones // ((1 << width) - 1)


def _blocks(bits: int, width: int) -> Iterator[Tuple[int, int]]:
    """``(block, lowest set bit in it)`` for every nonzero ``width``-bit
    block of ``bits``, lowest block first."""
    block = 0
    while bits:
        skip, bit = divmod((bits & -bits).bit_length() - 1, width)
        block += skip
        yield block, bit
        bits >>= (skip + 1) * width
        block += 1


def _differences(values: List[int], rows: Sequence[int], width: int, rep: int) -> int:
    """Every bit where a row in ``rows`` differs from the good machine."""
    block = (1 << width) - 1
    diff = 0
    for row in rows:
        word = values[row]
        diff |= word ^ (word & block) * rep
    return diff


# ----------------------------------------------------------------------
# reading dict patterns
# ----------------------------------------------------------------------
def _reader(names: Sequence[str]) -> Callable[[Pattern], tuple]:
    """pattern -> the tuple of its values of ``names``, through one
    itemgetter; a missing name is a KeyError."""
    if len(names) == 1:
        one = itemgetter(names[0])
        return lambda pattern: (one(pattern),)
    return itemgetter(*names) if names else lambda pattern: ()


def _matrix(names: Sequence[str], patterns: Sequence[Pattern]) -> bytes:
    """The 0/1 matrix of ``patterns`` over ``names``, row-major, one row
    per pattern read once; a value other than 0 or 1 reads as its truth.
    A pattern missing a name is a KeyError."""
    read = _reader(names)
    try:
        matrix = b"".join(map(bytes, map(read, patterns)))
    except (TypeError, ValueError):  # a value that is not a byte
        pass
    else:
        if not matrix.translate(None, b"\x00\x01"):
            return matrix
    return b"".join(bytes(map(truth, read(pattern))) for pattern in patterns)


# ----------------------------------------------------------------------
# combinational grading
# ----------------------------------------------------------------------
def _batches(names: Sequence[str], patterns: Patterns) -> Iterator[Tuple[int, List[int]]]:
    """Each batch as ``(count, one word per source)``, packed when reached:
    a batch whose patterns miss a source fails naming the first such
    source."""
    if is_words(patterns, names):
        for start in range(0, patterns.count, BATCH):
            count = min(BATCH, patterns.count - start)
            mask = (1 << count) - 1
            yield count, [(word >> start) & mask for word in patterns.words]
        return
    for start in range(0, len(patterns), BATCH):
        batch = patterns[start : start + BATCH]
        try:
            matrix = _matrix(names, batch)
        except KeyError:
            missing = next(name for name in names if any(name not in p for p in batch))
            raise SimulationError(f"pattern misses source {missing!r}") from None
        yield len(batch), pack_columns(matrix, len(names))


def grade_combinational(
    netlist: GateNetlist, patterns: Patterns, faults: Sequence[Fault]
) -> FaultSimResult:
    """The grading behind :meth:`FaultSimulator.run`, on ``netlist``'s program."""
    program = compiled_program(netlist)
    result = FaultSimResult(total=len(faults))
    alive: List[Fault] = list(faults)
    sites = _sites(program, alive)
    start = 0
    for count, words in _batches(program.source_names, patterns):
        _BATCHES.inc()
        _EVENTS.inc(count * len(alive))
        first = _first_detections(program, sites, words, count) if alive else []
        still: List[Fault] = []
        still_sites: List[Site] = []
        for fault, site, bit in zip(alive, sites, first):
            if bit is None:
                still.append(fault)
                still_sites.append(site)
            else:
                result.detected.append(fault)
                result.first_detection[fault] = start + bit
        _DROPPED.inc(len(alive) - len(still))
        alive, sites = still, still_sites
        start += count
        if not alive:
            break
    result.undetected = alive
    return result


def _first_detections(
    program: CompiledProgram, sites: List[Site], words: List[int], width: int
) -> List[Optional[int]]:
    """Per site, the first of ``width`` patterns that detects it, or None."""
    first: List[Optional[int]] = [None] * len(sites)
    # an empty chunk still runs the good machine, for the flop input pins
    for chunk in _chunks(sites, width):
        values, groups, machines, rep = _plane(program, [sites[i] for i in chunk], width)
        for row, word in zip(program.source_rows, words):
            values[row] = word * rep
        program.eval(values, machines, groups)
        diff = _differences(values, program.observe_rows, width, rep)
        for b, bit in _blocks(diff >> width, width):
            first[chunk[b]] = bit
    block = (1 << width) - 1
    for i, (_, _, stuck, captured) in enumerate(sites):
        if captured is not None:
            missed = (values[captured] & block) ^ (block if stuck else 0)
            if missed:
                first[i] = (missed & -missed).bit_length() - 1
    return first


# ----------------------------------------------------------------------
# sequential grading
# ----------------------------------------------------------------------
def _cycle_words(
    names: Sequence[str], sequences: Sequence[Sequence[Pattern]], length: int
) -> List[List[int]]:
    """Per cycle, one word per input: bit ``p`` is sequence ``p``'s value,
    and a missing input reads 0 (no error).

    Every pattern is read once, cycle by cycle, into one matrix whose
    columns are packed once over the whole stimulus set; cycle ``c``'s
    words are the columns' ``width`` bits from ``c * width`` up.
    """
    if not length:
        return []
    patterns = list(chain.from_iterable(zip(*sequences)))
    try:
        matrix = _matrix(names, patterns)
    except KeyError:
        zeros = repeat(0)
        matrix = b"".join(bytes(map(truth, map(p.get, names, zeros))) for p in patterns)
    width = len(sequences)
    mask = (1 << width) - 1
    columns = pack_columns(matrix, len(names))
    return [
        [(column >> shift) & mask for column in columns]
        for shift in range(0, length * width, width)
    ]


def grade_sequence_group(
    netlist: GateNetlist,
    sequences: Sequence[Sequence[Pattern]],
    length: int,
    alive: List[Fault],
    result: FaultSimResult,
) -> List[Fault]:
    """The grading behind :func:`sequential_fault_grade`.

    Grades every sequence (each ``length`` cycles long) as one group
    and returns the survivors; detected faults and ``first_detection``
    cycles land in ``result`` in fault-list order.
    """
    program = compiled_program(netlist)
    cycles = _cycle_words(program.input_names, sequences, length)
    width = len(sequences)
    sites = _sites(program, alive)
    found: List[Optional[int]] = [None] * len(sites)
    # flop input-pin faults never perturb the sequential simulation
    # (flops are sources, never re-evaluated): inert, so never in a chunk
    for chunk in _chunks(sites, width):
        for b, cycle in _grade_plane(program, [sites[i] for i in chunk], cycles, width):
            found[chunk[b]] = cycle

    survivors: List[Fault] = []
    for fault, cycle in zip(alive, found):
        if cycle is None:
            survivors.append(fault)
        else:
            result.detected.append(fault)
            result.first_detection[fault] = cycle
    return survivors


def _grade_plane(
    program: CompiledProgram, sites: List[Site], cycles: List[List[int]], width: int
) -> Iterator[Tuple[int, int]]:
    """Run the good machine and ``sites`` on one plane through every
    cycle; yield ``(f, cycle)`` at the first cycle that detects ``sites[f]``."""
    values, groups, machines, rep = _plane(program, sites, width)
    block = (1 << width) - 1
    pending = values[ONE_ROW] ^ block
    for cycle, words in enumerate(cycles if sites else ()):
        for row, word in zip(program.input_rows, words):
            values[row] = word * rep
        program.eval(values, machines, groups)
        hit = _differences(values, program.output_rows, width, rep) & pending
        if hit:
            for b, _ in _blocks(hit >> width, width):
                pending ^= block << ((b + 1) * width)
                yield b, cycle
            if not pending:
                return
        program.clock(values)
