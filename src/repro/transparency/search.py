"""Transparency-path search on the RCG (the paper's Section 4 BFS).

Two directions:

* **justify**: make a core *output* slice take an arbitrary value by
  applying data at core inputs some cycles earlier.  The search walks
  arcs backwards; at a C-split register every driven sub-slice spawns a
  mandatory branch (AND), and alternative arcs covering the same
  sub-slice are alternatives (OR).  Branches reconverge when they reach
  the same O-split source -- exactly the CPU example where the search
  splits at ACCUMULATOR and reconverges at IR.

* **propagate**: make a core *input* value visible at core outputs.
  Arcs are walked forwards; at an O-split node all disjoint fanout
  slices must be carried (AND), alternatives covering the same slice
  are OR.

Parallel sub-paths of different depth are balanced by *freezing* the
early data in place (extra enable-gating logic on the register holding
it), matching the paper's Status-register freeze.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.obs import METRICS, profile_section
from repro.rtl.types import ComponentKind, Slice
from repro.transparency.rcg import RCG, TransArc

#: cells to freeze a register that already has a load enable
FREEZE_COST_WITH_ENABLE = 1
#: cells to freeze a register that loads unconditionally
FREEZE_COST_NO_ENABLE = 3

_EXPANSIONS = METRICS.counter("transparency.search.expansions")
_JUSTIFY_CALLS = METRICS.counter("transparency.search.justify")
_PROPAGATE_CALLS = METRICS.counter("transparency.search.propagate")


@dataclass
class PathNode:
    """One node of a transparency-path tree.

    ``branches`` pair the arc taken with the subtree beyond it; all
    branches are required (they cover disjoint sub-slices of ``piece``).
    ``latency`` is the cycles between this node's data being valid and
    the terminal end of the subtree.
    """

    piece: Slice
    latency: int
    branches: List[Tuple[TransArc, "PathNode"]] = field(default_factory=list)

    def walk_arcs(self) -> List[TransArc]:
        arcs = []
        for arc, sub in self.branches:
            arcs.append(arc)
            arcs.extend(sub.walk_arcs())
        return arcs

    def walk_terminals(self) -> List[Slice]:
        if not self.branches:
            return [self.piece]
        terminals: List[Slice] = []
        for _, sub in self.branches:
            terminals.extend(sub.walk_terminals())
        return terminals


@dataclass
class TransparencyPath:
    """A complete justification/propagation solution for one port slice."""

    direction: str  # "justify" | "propagate"
    root: Slice
    tree: PathNode
    latency: int
    arcs_used: FrozenSet[Tuple]
    terminals: List[Slice]
    freezes: List[Tuple[str, int]]  # (register, cycles held)

    @property
    def terminal_ports(self) -> List[str]:
        seen: Dict[str, None] = {}
        for terminal in self.terminals:
            seen.setdefault(terminal.comp, None)
        return list(seen)


class TransparencySearch:
    """Min-latency transparency-path solver over one RCG."""

    def __init__(
        self,
        rcg: RCG,
        hscan_only: bool = False,
        avoid_arcs: Optional[Set[Tuple]] = None,
    ) -> None:
        self.rcg = rcg
        self.hscan_only = hscan_only
        #: arcs already used by other paths; reusing them is allowed but
        #: deprioritized (the paper first tries disjoint paths)
        self.avoid_arcs = avoid_arcs or set()

    # ------------------------------------------------------------------
    def justify(self, target: Slice) -> Optional[TransparencyPath]:
        """Find how to set output/register slice ``target`` from inputs."""
        _JUSTIFY_CALLS.inc()
        with profile_section("transparency.search"):
            tree = self._search(target, backwards=True, stack=frozenset())
        if tree is None:
            return None
        return self._finish("justify", target, tree)

    def propagate(self, source: Slice) -> Optional[TransparencyPath]:
        """Find how input/register slice ``source`` reaches outputs."""
        _PROPAGATE_CALLS.inc()
        with profile_section("transparency.search"):
            tree = self._search(source, backwards=False, stack=frozenset())
        if tree is None:
            return None
        return self._finish("propagate", source, tree)

    # ------------------------------------------------------------------
    def _finish(self, direction: str, root: Slice, tree: PathNode) -> TransparencyPath:
        freezes: List[Tuple[str, int]] = []
        self._collect_freezes(tree, freezes)
        return TransparencyPath(
            direction=direction,
            root=root,
            tree=tree,
            latency=tree.latency,
            arcs_used=frozenset(arc.key() for arc in tree.walk_arcs()),
            terminals=tree.walk_terminals(),
            freezes=freezes,
        )

    def _collect_freezes(self, node: PathNode, out: List[Tuple[str, int]]) -> None:
        if node.branches:
            totals = [arc.latency + sub.latency for arc, sub in node.branches]
            longest = max(totals)
            for (arc, sub), total in zip(node.branches, totals):
                if total < longest:
                    holder = sub.piece.comp
                    kind = self.rcg.circuit.get(holder).kind
                    if kind is ComponentKind.REGISTER:
                        out.append((holder, longest - total))
        for _, sub in node.branches:
            self._collect_freezes(sub, out)

    # ------------------------------------------------------------------
    def _allowed(self, arc: TransArc) -> bool:
        return arc.hscan or not self.hscan_only

    def _terminal_kind(self, backwards: bool) -> ComponentKind:
        return ComponentKind.INPUT if backwards else ComponentKind.OUTPUT

    def _search(
        self, piece: Slice, backwards: bool, stack: FrozenSet[str]
    ) -> Optional[PathNode]:
        _EXPANSIONS.inc()
        kind = self.rcg.circuit.get(piece.comp).kind
        if kind is self._terminal_kind(backwards):
            return PathNode(piece, 0)
        if piece.comp in stack:
            return None
        next_stack = stack | {piece.comp}

        if backwards:
            arcs = [
                a
                for a in self.rcg.arcs_into(piece.comp)
                if self._allowed(a) and a.dest.lo < piece.hi and piece.lo < a.dest.hi
            ]
        else:
            arcs = [
                a
                for a in self.rcg.arcs_from(piece.comp)
                if self._allowed(a) and a.source.lo < piece.hi and piece.lo < a.source.hi
            ]
        if not arcs:
            return None

        segments = self._segments(piece, arcs, backwards)
        branches: List[Tuple[TransArc, PathNode]] = []
        for segment in segments:
            best: Optional[Tuple[Tuple, TransArc, PathNode]] = None
            for arc in arcs:
                own = arc.dest if backwards else arc.source
                if not (own.lo <= segment.lo and segment.hi <= own.hi):
                    continue
                far = arc.source if backwards else arc.dest
                sub_piece = far.sub(segment.lo - own.lo, segment.width)
                sub = self._search(sub_piece, backwards, next_stack)
                if sub is None:
                    continue
                total = arc.latency + sub.latency
                score = (
                    total,
                    1 if arc.key() in self.avoid_arcs else 0,
                    0 if arc.hscan else 1,
                    str(arc.source),
                )
                if best is None or score < best[0]:
                    best = (score, arc, sub)
            if best is None:
                return None
            branches.append((best[1], best[2]))

        latency = max(arc.latency + sub.latency for arc, sub in branches)
        return PathNode(piece, latency, branches)

    @staticmethod
    def _segments(piece: Slice, arcs: Sequence[TransArc], backwards: bool) -> List[Slice]:
        """Cut ``piece`` at the boundaries of the arcs touching it."""
        cuts = {piece.lo, piece.hi}
        for arc in arcs:
            own = arc.dest if backwards else arc.source
            if piece.lo < own.lo < piece.hi:
                cuts.add(own.lo)
            if piece.lo < own.hi < piece.hi:
                cuts.add(own.hi)
        ordered = sorted(cuts)
        return [
            Slice(piece.comp, lo, hi - lo) for lo, hi in zip(ordered, ordered[1:])
        ]
