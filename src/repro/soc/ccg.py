"""The core connectivity graph (CCG) as an inspectable networkx digraph.

Nodes (paper Figure 9): chip PIs and POs, and per-core input/output port
*slices* (ports split where their fanin/fanout or transparency structure
splits them).  Edges:

* transparency edges inside a core (weight = transparency latency), and
* interconnect wires between cores / pins (weight 0).

The planner in :mod:`repro.soc.plan` performs its own recursive search
(with resource serialization the plain graph cannot express), but the
CCG is the right object for visualization, reachability analysis, and
the shortest-path intuition of Section 5.1 -- and the tests assert its
shape matches the paper's figure for the barcode system.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import networkx as nx

from repro.obs import METRICS, profile_section
from repro.soc.system import Soc

NodeId = Tuple[str, ...]  # ("PI", pin) | ("PO", pin) | ("CI"/"CO", core, port, lo, width)

_CCG_BUILDS = METRICS.counter("chiplevel.ccg.builds")
_CCG_QUERIES = METRICS.counter("chiplevel.ccg.queries")
_CCG_EXPANSIONS = METRICS.counter("chiplevel.ccg.expansions")


def build_ccg(soc: Soc, selection: Optional[Dict[str, int]] = None) -> "nx.DiGraph":
    """Build the CCG for one version selection (default: all version 0)."""
    with profile_section("chiplevel.ccg"):
        _CCG_BUILDS.inc()
        return _build_ccg(soc, selection)


def _build_ccg(soc: Soc, selection: Optional[Dict[str, int]] = None) -> "nx.DiGraph":
    if selection is None:
        selection = {core.name: 0 for core in soc.testable_cores()}
    graph = nx.DiGraph(name=f"ccg:{soc.name}")

    for pin, width in soc.chip_inputs.items():
        graph.add_node(("PI", pin), width=width, kind="PI")
    for pin, width in soc.chip_outputs.items():
        graph.add_node(("PO", pin), width=width, kind="PO")

    # core port slice nodes from transparency edges + interconnect
    for core in soc.testable_cores():
        version = core.version(selection.get(core.name, 0))
        for port in core.circuit.inputs:
            graph.add_node(("CI", core.name, port.name, 0, port.width), kind="CI")
        for edge in version.edges:
            graph.add_node(
                ("CO", core.name, edge.output, edge.output_lo, edge.output_width),
                kind="CO",
            )
        for edge in version.edges:
            graph.add_edge(
                ("CI", core.name, edge.input_port, 0, core.port_width(edge.input_port)),
                ("CO", core.name, edge.output, edge.output_lo, edge.output_width),
                weight=edge.latency,
                kind="transparency",
            )

    # interconnect edges (weight 0); output-slice nodes may need matching
    for net in soc.nets:
        source = _find_source_node(graph, soc, net)
        dest = _find_dest_node(graph, soc, net)
        if source is not None and dest is not None:
            graph.add_edge(source, dest, weight=0, kind="wire")
    return graph


def _find_source_node(graph: "nx.DiGraph", soc: Soc, net) -> Optional[NodeId]:
    if net.source.core is None:
        node = ("PI", net.source.port)
        return node if graph.has_node(node) else None
    # find a CO slice node overlapping the net's source slice
    for node in graph.nodes:
        if node[0] != "CO" or node[1] != net.source.core or node[2] != net.source.port:
            continue
        lo, width = node[3], node[4]
        if lo < net.source.hi and net.source.lo < lo + width:
            return node
    return None


def _find_dest_node(graph: "nx.DiGraph", soc: Soc, net) -> Optional[NodeId]:
    if net.dest.core is None:
        node = ("PO", net.dest.port)
        return node if graph.has_node(node) else None
    for node in graph.nodes:
        if node[0] == "CI" and node[1] == net.dest.core and node[2] == net.dest.port:
            return node
    return None


def shortest_justification(
    graph: "nx.DiGraph", target: NodeId
) -> Optional[Tuple[int, list]]:
    """Min-latency path from any PI to ``target`` (Dijkstra, Section 5.1).

    Returns (cost, node list) or None when the target is unreachable --
    the situation that calls for a system-level test multiplexer.
    """
    _CCG_QUERIES.inc()
    best: Optional[Tuple[int, list]] = None
    for node, data in graph.nodes(data=True):
        if data.get("kind") != "PI":
            continue
        try:
            cost, path = nx.single_source_dijkstra(graph, node, target, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        _CCG_EXPANSIONS.inc(len(path))
        if best is None or cost < best[0]:
            best = (int(cost), path)
    return best
