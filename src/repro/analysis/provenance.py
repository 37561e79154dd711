"""Slice-provenance proofs over transparency-path trees.

A :class:`~repro.transparency.search.TransparencyPath` *claims* that its
root port slice is transparent: every root bit is carried verbatim to or
from a terminal port, ``latency`` cycles apart.  The planner and the TAT
accounting trust that claim blindly.  :func:`prove_path` re-derives it
from first principles by walking the path tree and tracking, bit by bit,
which terminal bits reach which root bits through the chain of
:class:`~repro.transparency.rcg.TransArc` transfers:

* each branch arc must actually touch the node it hangs off, and the
  branch subtree may only claim bits the arc transports (width
  narrowing is a refutation, not a rounding error);
* the branches of a node must cover its slice exactly -- C-split /
  O-split joins leave no gaps and no double-claimed bits;
* every leaf must land on a terminal port of the right kind (inputs for
  justification, outputs for propagation);
* the per-branch latencies must reproduce the declared path latency.

The result is a :class:`SliceProof`: either a complete, machine-checked
segment map (root bits ``[lo, lo+w)`` come from terminal bits
``[tlo, tlo+w)`` after ``n`` cycles) or a list of refutation reasons
naming the offending slice ranges.  The certifier
(:mod:`repro.analysis.certify`) turns a refutation into an
``analysis.*`` diagnostic, and a derived latency other than the
declared one into ``trans.latency-overrun``.  The differential harness
(:mod:`repro.analysis.differential`) replays proved segment maps on the
gate-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.rtl.types import ComponentKind, Slice


@dataclass(frozen=True)
class ProvenanceSegment:
    """One proved contiguous bit-range of a path's root slice.

    Root bits ``[root_lo, root_lo + width)`` (absolute bit positions on
    the root port) are carried verbatim from/to terminal bits
    ``[terminal_lo, terminal_lo + width)`` of port ``terminal``,
    ``latency`` cycles apart.
    """

    root_lo: int
    width: int
    terminal: str
    terminal_lo: int
    latency: int

    @property
    def root_hi(self) -> int:
        return self.root_lo + self.width

    def terminal_slice(self) -> Slice:
        return Slice(self.terminal, self.terminal_lo, self.width)

    def to_dict(self) -> Dict[str, object]:
        return {
            "root_lo": self.root_lo,
            "width": self.width,
            "terminal": self.terminal,
            "terminal_lo": self.terminal_lo,
            "latency": self.latency,
        }

    def __str__(self) -> str:
        return f"[{self.root_hi - 1}:{self.root_lo}] <= {self.terminal_slice()} ({self.latency}cy)"


@dataclass
class SliceProof:
    """The outcome of re-proving one transparency path at the bit level."""

    direction: str
    root: Slice
    claimed_latency: int
    derived_latency: int
    proved_width: int
    segments: List[ProvenanceSegment]
    reasons: List[str]

    @property
    def proved(self) -> bool:
        return not self.reasons and self.proved_width == self.root.width

    def to_dict(self) -> Dict[str, object]:
        return {
            "direction": self.direction,
            "root": str(self.root),
            "claimed_latency": self.claimed_latency,
            "derived_latency": self.derived_latency,
            "claimed_width": self.root.width,
            "proved_width": self.proved_width,
            "proved": self.proved,
            "segments": [segment.to_dict() for segment in self.segments],
            "reasons": list(self.reasons),
        }


def _coverage_problems(
    piece: Slice, covered: List[Tuple[int, int]]
) -> Tuple[List[str], List[str]]:
    """Missing and overlapping sub-ranges of ``piece`` as slice strings."""
    counts = [0] * piece.width
    for lo, hi in covered:
        for offset in range(lo, hi):
            counts[offset] += 1

    def ranges(predicate) -> List[str]:
        found: List[str] = []
        start: Optional[int] = None
        for offset in range(piece.width + 1):
            hit = offset < piece.width and predicate(counts[offset])
            if hit and start is None:
                start = offset
            elif not hit and start is not None:
                found.append(str(Slice(piece.comp, piece.lo + start, offset - start)))
                start = None
        return found

    return ranges(lambda c: c == 0), ranges(lambda c: c > 1)


def prove_path(circuit, path, known_arcs: Optional[Dict[Tuple, object]] = None) -> SliceProof:
    """Re-derive ``path``'s transparency claim as a bit-exact segment map.

    ``known_arcs`` (arc key -> arc), when given, restricts the proof to
    arcs that exist in the version's RCG -- a tree referencing an edge
    the connectivity graph never had is refuted outright.
    """
    backwards = path.direction == "justify"
    terminal_kind = ComponentKind.INPUT if backwards else ComponentKind.OUTPUT
    reasons: List[str] = []

    def check_slice(piece: Slice) -> bool:
        try:
            component = circuit.get(piece.comp)
        except ReproError:
            reasons.append(f"{piece} names no component of {circuit.name!r}")
            return False
        if piece.hi > component.width:
            reasons.append(
                f"{piece} exceeds the {component.width}-bit width of {piece.comp!r}"
            )
            return False
        return True

    def walk(node) -> Tuple[List[ProvenanceSegment], int]:
        """Segments in node-local offsets, plus the node's derived latency."""
        piece = node.piece
        if not check_slice(piece):
            return [], 0
        if not node.branches:
            if circuit.get(piece.comp).kind is not terminal_kind:
                reasons.append(
                    f"path dangles at {piece}: a {path.direction} path must "
                    f"terminate on core {terminal_kind.value} ports, not on "
                    f"{circuit.get(piece.comp).kind.value} {piece.comp!r}"
                )
                return [], 0
            return [ProvenanceSegment(0, piece.width, piece.comp, piece.lo, 0)], 0

        segments: List[ProvenanceSegment] = []
        covered: List[Tuple[int, int]] = []
        derived = 0
        for arc, sub in node.branches:
            own = arc.dest if backwards else arc.source
            far = arc.source if backwards else arc.dest
            if known_arcs is not None and arc.key() not in known_arcs:
                reasons.append(f"arc {arc} is not an edge of the circuit's RCG")
                continue
            if own.comp != piece.comp:
                reasons.append(f"arc {arc} does not touch {piece} (wrong component)")
                continue
            if far.comp != sub.piece.comp:
                reasons.append(f"arc {arc} cannot reach branch node {sub.piece}")
                continue
            if not (far.lo <= sub.piece.lo and sub.piece.hi <= far.hi):
                reasons.append(
                    f"branch slice {sub.piece} exceeds the transported slice "
                    f"{far} of arc {arc}"
                )
                continue
            lo = own.lo + (sub.piece.lo - far.lo)
            hi = lo + sub.piece.width
            if lo < piece.lo or hi > piece.hi:
                reasons.append(
                    f"arc {arc} lands on bits [{hi - 1}:{lo}] outside {piece}"
                )
                continue
            sub_segments, sub_latency = walk(sub)
            derived = max(derived, arc.latency + sub_latency)
            for segment in sub_segments:
                segments.append(
                    ProvenanceSegment(
                        root_lo=(lo - piece.lo) + segment.root_lo,
                        width=segment.width,
                        terminal=segment.terminal,
                        terminal_lo=segment.terminal_lo,
                        latency=segment.latency + arc.latency,
                    )
                )
            covered.append((lo - piece.lo, hi - piece.lo))

        missing, overlapping = _coverage_problems(piece, covered)
        for gap in missing:
            reasons.append(f"bits {gap} are not covered by any branch")
        for claim in overlapping:
            reasons.append(f"bits {claim} are claimed by more than one branch")
        return segments, derived

    local_segments, derived = walk(path.tree)
    if path.tree.piece != path.root:
        reasons.append(
            f"path root is declared as {path.root} but the tree starts at {path.tree.piece}"
        )
    if path.latency != derived and not reasons:
        reasons.append(
            f"declared latency {path.latency} but the proved segment map "
            f"derives {derived}"
        )

    segments = sorted(
        (
            ProvenanceSegment(
                root_lo=path.root.lo + segment.root_lo,
                width=segment.width,
                terminal=segment.terminal,
                terminal_lo=segment.terminal_lo,
                latency=segment.latency,
            )
            for segment in local_segments
        ),
        key=lambda s: (s.root_lo, s.width, s.terminal, s.terminal_lo, s.latency),
    )

    counts = [0] * path.root.width
    for segment in segments:
        for offset in range(segment.root_lo - path.root.lo, segment.root_hi - path.root.lo):
            if 0 <= offset < path.root.width:
                counts[offset] += 1
    proved_width = sum(1 for count in counts if count >= 1)

    return SliceProof(
        direction=path.direction,
        root=path.root,
        claimed_latency=path.latency,
        derived_latency=derived,
        proved_width=proved_width,
        segments=segments,
        reasons=reasons,
    )
