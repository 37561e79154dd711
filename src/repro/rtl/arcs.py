"""Extraction of lossless transfer arcs from RTL driver expressions.

A *transfer arc* records that a contiguous slice of a register or output
port can receive, in one clock cycle (registers) or combinationally
(outputs), an exact copy of a slice of an input or register -- either
directly or by steering a chain of multiplexers.  Arcs are the raw
material of both HSCAN chain construction and the paper's register
connectivity graph (Section 4): "an edge is present between two nodes if
a direct or multiplexer path exists between them".

Paths through operators are lossy and produce no arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Mux
from repro.rtl.types import ComponentKind, Expr, Slice, expr_parts, slice_expr


@dataclass(frozen=True)
class Arc:
    """One lossless slice-to-slice transfer opportunity.

    ``dest``/``dest_lo`` identify the receiving slice
    (``dest[dest_lo : dest_lo + source.width]``); ``source`` is the slice
    supplying the bits.  ``mux_path`` lists the (mux name, selected input
    index) steering decisions needed to open the path -- empty for a
    direct connection.  ``dest_is_output`` distinguishes combinational
    output-port arcs (latency 0) from register arcs (latency 1).
    """

    source: Slice
    dest: str
    dest_lo: int
    mux_path: Tuple[Tuple[str, int], ...]
    dest_is_output: bool

    @property
    def width(self) -> int:
        return self.source.width

    @property
    def is_direct(self) -> bool:
        return not self.mux_path

    def __str__(self) -> str:
        via = "" if self.is_direct else " via " + ">".join(m for m, _ in self.mux_path)
        dest_slice = Slice(self.dest, self.dest_lo, self.width)
        return f"{self.source} -> {dest_slice}{via}"


#: muxes an arc may pass through (defensive; real RTL mux trees are shallow)
MAX_MUX_DEPTH = 4


def extract_arcs(circuit: RTLCircuit) -> List[Arc]:
    """All transfer arcs of ``circuit``, through at most :data:`MAX_MUX_DEPTH` muxes."""
    arcs: List[Arc] = []
    for register in circuit.registers:
        if register.driver is not None:
            _trace(circuit, register.driver, register.name, 0, (), False, arcs, MAX_MUX_DEPTH)
    for output in circuit.outputs:
        if output.driver is not None:
            _trace(circuit, output.driver, output.name, 0, (), True, arcs, MAX_MUX_DEPTH)
    return arcs


def _trace(
    circuit: RTLCircuit,
    expr: Expr,
    dest: str,
    dest_lo: int,
    mux_path: Tuple[Tuple[str, int], ...],
    dest_is_output: bool,
    arcs: List[Arc],
    depth_budget: int,
) -> None:
    offset = dest_lo
    for part in expr_parts(expr):
        component = circuit.get(part.comp)
        kind = component.kind
        if kind in (ComponentKind.INPUT, ComponentKind.REGISTER):
            arcs.append(Arc(part, dest, offset, mux_path, dest_is_output))
        elif kind is ComponentKind.MUX and depth_budget > 0:
            mux: Mux = component  # type: ignore[assignment]
            for index, candidate in enumerate(mux.inputs):
                sub = slice_expr(candidate, part.lo, part.width)
                _trace(
                    circuit,
                    sub,
                    dest,
                    offset,
                    mux_path + ((mux.name, index),),
                    dest_is_output,
                    arcs,
                    depth_budget - 1,
                )
        # operators/constants: lossy or valueless -- no arc
        offset += part.width

