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
from functools import cached_property
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.obs import METRICS, profile_section
from repro.rtl.types import Slice
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
    the terminal end of the subtree.  :meth:`walk_arcs` and
    :meth:`walk_terminals` re-derive from the tree what the search
    recorded on its path; the certifier compares the two.
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

    @cached_property
    def terminal_ports(self) -> List[str]:
        """The ports the terminals lie on, first seen first; computed once."""
        return list(dict.fromkeys(terminal.comp for terminal in self.terminals))

    @cached_property
    def resources(self) -> FrozenSet:
        """What a transfer along the path holds busy: its arcs and ``("port", p)``."""
        return self.arcs_used | {("port", port) for port in self.terminal_ports}


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
            tree = self._tree(target, backwards=True)
        if tree is None:
            return None
        return self._finish("justify", target, tree)

    def propagate(self, source: Slice) -> Optional[TransparencyPath]:
        """Find how input/register slice ``source`` reaches outputs."""
        _PROPAGATE_CALLS.inc()
        with profile_section("transparency.search"):
            tree = self._tree(source, backwards=False)
        if tree is None:
            return None
        return self._finish("propagate", source, tree)

    # ------------------------------------------------------------------
    def _tree(self, root: Slice, backwards: bool) -> Optional[PathNode]:
        """The min-latency path tree from ``root``, or None.

        Each piece is cut where an arc boundary falls strictly inside it;
        every segment takes the candidate arc with the least ``(latency,
        avoided, non-HSCAN, source)`` score, the first one on a tie.  A
        component already on the walk's stack is a cycle and fails.
        """
        rows_of = self.rcg.search_rows(backwards, self.hscan_only)
        terminals = self.rcg.terminals[backwards]
        avoid = self.avoid_arcs
        stack: Set[str] = set()
        expansions = 0

        def expand(comp: str, lo: int, hi: int) -> Optional[PathNode]:
            nonlocal expansions
            expansions += 1
            if comp in terminals:
                return PathNode(Slice(comp, lo, hi - lo), 0)
            if comp in stack:
                return None
            rows = []
            inner = set()  # arc boundaries strictly inside the piece
            for row in rows_of.get(comp, ()):
                own_lo, own_hi = row.own_lo, row.own_hi
                if own_lo < hi and lo < own_hi:
                    rows.append(row)
                    if lo < own_lo:
                        inner.add(own_lo)
                    if own_hi < hi:
                        inner.add(own_hi)
            if not rows:
                return None
            bounds = [lo, *sorted(inner), hi]
            stack.add(comp)
            branches: List[Tuple[TransArc, PathNode]] = []
            latency = 0
            for seg_lo, seg_hi in zip(bounds, bounds[1:]):
                best = best_score = None
                for own_lo, own_hi, far, offset, arc_latency, key, non_hscan, source, arc in rows:
                    if own_lo <= seg_lo and seg_hi <= own_hi:
                        sub = expand(far, seg_lo + offset, seg_hi + offset)
                        if sub is None:
                            continue
                        score = (arc_latency + sub.latency, key in avoid, non_hscan, source)
                        if best is None or score < best_score:
                            best, best_score = (arc, sub), score
                if best is None:
                    stack.remove(comp)
                    return None
                branches.append(best)
                latency = max(latency, best_score[0])
            stack.remove(comp)
            return PathNode(Slice(comp, lo, hi - lo), latency, branches)

        tree = expand(root.comp, root.lo, root.hi)
        _EXPANSIONS.inc(expansions)
        return tree

    def _finish(self, direction: str, root: Slice, tree: PathNode) -> TransparencyPath:
        """Arc keys, terminals and freezes of ``tree`` in one walk.

        A branch that completes before its node's slowest one holds its
        data in place for the difference, which costs freeze logic when
        the holder is a register.
        """
        registers = self.rcg.registers
        keys: List[Tuple] = []
        terminals: List[Slice] = []
        freezes: List[Tuple[str, int]] = []

        def walk(node: PathNode) -> None:
            if not node.branches:
                terminals.append(node.piece)
                return
            for arc, sub in node.branches:
                total = arc.latency + sub.latency
                if total < node.latency and sub.piece.comp in registers:
                    freezes.append((sub.piece.comp, node.latency - total))
            for arc, sub in node.branches:
                keys.append(arc.key())
                walk(sub)

        walk(tree)
        return TransparencyPath(
            direction=direction,
            root=root,
            tree=tree,
            latency=tree.latency,
            arcs_used=frozenset(keys),
            terminals=terminals,
            freezes=freezes,
        )
