"""The register connectivity graph (RCG) of a core.

Nodes are the core's input ports, output ports, and registers; a
(slice-level) edge exists wherever a direct or multiplexer path can copy
bits between nodes in one cycle (zero cycles into an output port).  The
graph classifies the paper's split nodes when asked
(:meth:`RCG.is_c_split`, :meth:`RCG.is_o_split`):

* a register is **C-split** when different bit-slices of it must receive
  data from different sources (its driving arcs partition it), and
* a node is **O-split** when disjoint bit-slices of it fan out to
  different destinations.

Edges selected by an HSCAN plan are flagged -- the transparency search
prefers them because their steering logic is already paid for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.dft.hscan import HscanResult
from repro.rtl.arcs import Arc, extract_arcs
from repro.rtl.circuit import RTLCircuit
from repro.rtl.types import ComponentKind, Slice


@dataclass(frozen=True)
class TransArc:
    """One slice-level RCG edge (a transfer opportunity).

    ``latency`` is 1 for edges into registers and 0 for combinational
    edges into output ports.  ``hscan`` marks edges whose steering is
    already provided by the core's HSCAN logic.
    """

    source: Slice
    dest: Slice
    mux_path: Tuple[Tuple[str, int], ...]
    latency: int
    hscan: bool
    #: True for synthesized transparency-mux arcs (they open test-only
    #: bypasses and must not re-partition the functional port slicing)
    added: bool = False

    @property
    def width(self) -> int:
        return self.source.width

    def key(self) -> Tuple:
        """Identity used for reservation/sharing bookkeeping."""
        return (self.source, self.dest, self.mux_path)

    def __str__(self) -> str:
        flag = "#" if self.hscan else ""
        return f"{self.source} ->{flag} {self.dest}"


@dataclass
class RCGNode:
    """A port or register of the core."""

    name: str
    kind: str  # "input" | "output" | "register"
    width: int


_NODE_KINDS = {
    ComponentKind.INPUT: "input",
    ComponentKind.OUTPUT: "output",
    ComponentKind.REGISTER: "register",
}


class SearchRow(NamedTuple):
    """One arc as a search candidate, seen from the component it serves.

    The *own* slice is the arc's end at that component (its dest walking
    backwards, its source forwards); ``offset`` takes a bit of the own
    slice to the matching bit of the *far* component.
    """

    own_lo: int
    own_hi: int
    far: str
    offset: int
    latency: int
    key: Tuple
    #: 0 for an HSCAN arc, 1 otherwise: the search prefers HSCAN arcs
    non_hscan: int
    #: the last tie-break, the arc's source as text
    source: str
    arc: TransArc


class RCG:
    """Slice-level register connectivity graph.

    What the search reads is derived once per RCG and lives on it: the
    candidate rows per ``(backwards, hscan_only)`` pair, built on first
    use, and the arcs by key.  A :meth:`with_extra_arcs` copy is built
    with its ``parent``, whose arcs begin its own; it shares the
    parent's nodes, arc lists and rows wherever its extra arcs do not
    reach.
    """

    def __init__(
        self, circuit: RTLCircuit, arcs: List[TransArc], parent: Optional["RCG"] = None
    ) -> None:
        self.circuit = circuit
        self.arcs = arcs
        self._parent = parent
        #: the arcs this RCG adds to its parent's: all of them without a parent
        self._new = arcs[len(parent.arcs) :] if parent is not None else arcs
        self._rows: Dict[Tuple[bool, bool], Dict[str, Tuple[SearchRow, ...]]] = {}
        if parent is None:
            self.nodes: Dict[str, RCGNode] = {
                c.name: RCGNode(c.name, _NODE_KINDS[c.kind], c.width)
                for c in circuit.components()
                if c.kind in _NODE_KINDS
            }
            #: where a search ends: inputs walking backwards, outputs forwards
            self.terminals: Dict[bool, FrozenSet[str]] = {
                True: frozenset(n for n, node in self.nodes.items() if node.kind == "input"),
                False: frozenset(n for n, node in self.nodes.items() if node.kind == "output"),
            }
            self.registers = frozenset(
                n for n, node in self.nodes.items() if node.kind == "register"
            )
            self._arcs_into: Dict[str, List[TransArc]] = {}
            self._arcs_from: Dict[str, List[TransArc]] = {}
        else:
            self.nodes = parent.nodes
            self.terminals = parent.terminals
            self.registers = parent.registers
            self._arcs_into = dict(parent._arcs_into)
            self._arcs_from = dict(parent._arcs_from)
        # a shared list is replaced, never appended to
        for arc in self._new:
            self._arcs_into[arc.dest.comp] = [*self._arcs_into.get(arc.dest.comp, ()), arc]
            self._arcs_from[arc.source.comp] = [*self._arcs_from.get(arc.source.comp, ()), arc]

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(
        cls, circuit: RTLCircuit, hscan_plan: Optional[HscanResult] = None
    ) -> "RCG":
        """Extract the RCG; flag HSCAN edges if a plan is supplied.

        The arcs come from the plan when one is given (HSCAN insertion
        extracted them from the same circuit), else from the circuit.
        Scan-in pins introduced by test-mux links are excluded so
        transparency paths terminate at *functional* ports, matching the
        CCG the paper draws (Figure 9).
        """
        structural = extract_arcs(circuit) if hscan_plan is None else hscan_plan.arcs
        hscan_keys: Set[Tuple] = set()
        if hscan_plan is not None:
            for link in hscan_plan.links:
                if link.kind == "testmux":
                    continue
                hscan_keys.add(
                    (link.source, Slice(link.dest.comp, link.dest.lo, link.dest.width), link.mux_path)
                )
            for obs in hscan_plan.observations:
                if obs.output is None:
                    continue
                source = obs.tail.as_slice()
                dest = Slice(obs.output, obs.output_lo, obs.tail.width)
                hscan_keys.add((source, dest, obs.mux_path))

        arcs: List[TransArc] = []
        seen: Set[Tuple] = set()
        for arc in structural:
            trans = _to_trans_arc(circuit, arc, hscan_keys)
            if trans.key() not in seen:
                seen.add(trans.key())
                arcs.append(trans)
        # HSCAN links whose slices are narrower than any structural arc
        # (split registers) still deserve edges of their own
        for key in hscan_keys:
            if key not in seen:
                source, dest, mux_path = key
                dest_comp = circuit.get(dest.comp)
                latency = 0 if dest_comp.kind is ComponentKind.OUTPUT else 1
                arcs.append(TransArc(source, dest, mux_path, latency, True))
                seen.add(key)
        return cls(circuit, arcs)

    # ------------------------------------------------------------------
    def is_c_split(self, name: str) -> bool:
        """Is register ``name`` driven slice by slice from different sources?"""
        if self.nodes[name].kind != "register":
            return False
        slices = {(a.dest.lo, a.dest.width) for a in self.arcs_into(name)}
        return bool(slices) and slices != {(0, self.nodes[name].width)} and len(slices) > 1

    def is_o_split(self, name: str) -> bool:
        """Do disjoint slices of port or register ``name`` fan out to different places?"""
        if self.nodes[name].kind == "output":
            return False
        distinct_slices = {(a.source.lo, a.source.width) for a in self.arcs_from(name)}
        if len(distinct_slices) <= 1:
            return False
        # o-split if at least two *disjoint* read slices exist
        ordered = sorted(distinct_slices)
        for i, (lo_a, w_a) in enumerate(ordered):
            for lo_b, w_b in ordered[i + 1 :]:
                if lo_a + w_a <= lo_b or lo_b + w_b <= lo_a:
                    return True
        return False

    # ------------------------------------------------------------------
    def arcs_into(self, comp: str) -> List[TransArc]:
        return self._arcs_into.get(comp, [])

    def arcs_from(self, comp: str) -> List[TransArc]:
        return self._arcs_from.get(comp, [])

    @cached_property
    def arc_by_key(self) -> Dict[Tuple, TransArc]:
        """Every arc by its key; a later arc wins a shared key."""
        table = dict(self._parent.arc_by_key) if self._parent is not None else {}
        for arc in self._new:
            table[arc.key()] = arc
        return table

    def search_rows(self, backwards: bool, hscan_only: bool) -> Dict[str, Tuple[SearchRow, ...]]:
        """The search's candidates per component, in arc order, built once.

        Backwards rows are the arcs into a component (own slice = the
        arc's dest), forwards rows the arcs out of it (own slice = its
        source); ``hscan_only`` keeps the HSCAN arcs alone.  Components
        this RCG's own arcs do not reach keep their parent's rows.
        """
        table = self._rows.get((backwards, hscan_only))
        if table is None:
            parent = self._parent
            table = dict(parent.search_rows(backwards, hscan_only)) if parent is not None else {}
            index = self._arcs_into if backwards else self._arcs_from
            all_rows = self.search_rows(backwards, False) if hscan_only else table
            for comp in dict.fromkeys(a.dest.comp if backwards else a.source.comp for a in self._new):
                if hscan_only:
                    table[comp] = tuple(row for row in all_rows[comp] if not row.non_hscan)
                else:
                    table[comp] = tuple(_search_row(arc, backwards) for arc in index[comp])
            self._rows[(backwards, hscan_only)] = table
        return table

    def input_names(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.kind == "input"]

    def output_names(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.kind == "output"]

    def output_slices(self, output: str) -> List[Slice]:
        """Partition an output port at its incoming-arc boundaries.

        The CPU's ``Address`` splits into ``[7:0]`` and ``[11:8]``
        because its halves are fed from different registers.
        """
        node = self.nodes[output]
        cuts = {0, node.width}
        for arc in self._arcs_into.get(output, []):
            if arc.added:
                continue
            cuts.add(arc.dest.lo)
            cuts.add(arc.dest.lo + arc.dest.width)
        ordered = sorted(c for c in cuts if 0 <= c <= node.width)
        return [Slice(output, lo, hi - lo) for lo, hi in zip(ordered, ordered[1:])]

    def with_extra_arcs(self, extra: List[TransArc]) -> "RCG":
        """A new RCG including added transparency-mux edges."""
        marked = [
            TransArc(a.source, a.dest, a.mux_path, a.latency, a.hscan, added=True)
            for a in extra
        ]
        return RCG(self.circuit, self.arcs + marked, parent=self)


def _search_row(arc: TransArc, backwards: bool) -> SearchRow:
    own, far = (arc.dest, arc.source) if backwards else (arc.source, arc.dest)
    return SearchRow(
        own.lo,
        own.hi,
        far.comp,
        far.lo - own.lo,
        arc.latency,
        arc.key(),
        0 if arc.hscan else 1,
        str(arc.source),
        arc,
    )


def _to_trans_arc(circuit: RTLCircuit, arc: Arc, hscan_keys: Set[Tuple]) -> TransArc:
    dest = Slice(arc.dest, arc.dest_lo, arc.width)
    key = (arc.source, dest, arc.mux_path)
    return TransArc(
        source=arc.source,
        dest=dest,
        mux_path=arc.mux_path,
        latency=0 if arc.dest_is_output else 1,
        hscan=key in hscan_keys,
    )
