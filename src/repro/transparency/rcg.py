"""The register connectivity graph (RCG) of a core.

Nodes are the core's input ports, output ports, and registers; a
(slice-level) edge exists wherever a direct or multiplexer path can copy
bits between nodes in one cycle (zero cycles into an output port).  The
graph marks the paper's split nodes:

* a register is **C-split** when different bit-slices of it must receive
  data from different sources (its driving arcs partition it), and
* a node is **O-split** when disjoint bit-slices of it fan out to
  different destinations.

Edges selected by an HSCAN plan are flagged -- the transparency search
prefers them because their steering logic is already paid for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
    """A port or register of the core, with its split classification."""

    name: str
    kind: str  # "input" | "output" | "register"
    width: int
    c_split: bool = False
    o_split: bool = False


class RCG:
    """Slice-level register connectivity graph."""

    def __init__(self, circuit: RTLCircuit, arcs: List[TransArc]) -> None:
        self.circuit = circuit
        self.arcs = arcs
        self.nodes: Dict[str, RCGNode] = {}
        self._arcs_into: Dict[str, List[TransArc]] = {}
        self._arcs_from: Dict[str, List[TransArc]] = {}
        for arc in arcs:
            self._arcs_into.setdefault(arc.dest.comp, []).append(arc)
            self._arcs_from.setdefault(arc.source.comp, []).append(arc)
        self._build_nodes()

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(
        cls, circuit: RTLCircuit, hscan_plan: Optional[HscanResult] = None
    ) -> "RCG":
        """Extract the RCG; flag HSCAN edges if a plan is supplied.

        Scan-in pins introduced by test-mux links are excluded so
        transparency paths terminate at *functional* ports, matching the
        CCG the paper draws (Figure 9).
        """
        structural = extract_arcs(circuit)
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
    def _build_nodes(self) -> None:
        for component in self.circuit.components():
            if component.kind is ComponentKind.INPUT:
                self.nodes[component.name] = RCGNode(component.name, "input", component.width)
            elif component.kind is ComponentKind.OUTPUT:
                self.nodes[component.name] = RCGNode(component.name, "output", component.width)
            elif component.kind is ComponentKind.REGISTER:
                self.nodes[component.name] = RCGNode(component.name, "register", component.width)
        for node in self.nodes.values():
            if node.kind != "output":
                node.o_split = self._is_o_split(node)
            if node.kind == "register":
                node.c_split = self._is_c_split(node)

    def _is_c_split(self, node: RCGNode) -> bool:
        """Different slices driven exclusively by different sources?"""
        slices = {(a.dest.lo, a.dest.width) for a in self._arcs_into.get(node.name, [])}
        full = {(0, node.width)}
        return bool(slices) and slices != full and len(slices) > 1

    def _is_o_split(self, node: RCGNode) -> bool:
        """Disjoint slices of the node fanning out to different places?"""
        reads = [
            (a.source.lo, a.source.width, a.dest.comp)
            for a in self._arcs_from.get(node.name, [])
        ]
        distinct_slices = {(lo, w) for lo, w, _ in reads}
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
        return RCG(self.circuit, self.arcs + marked)


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
