"""HSCAN insertion: reuse existing mux/direct paths as scan chains.

Following the paper's Section 2 (and HSCAN [6]):

* if a multiplexer path already exists between two registers, they join a
  scan chain at the cost of ~2 extra gates (forcing the select);
* a direct connection costs one OR gate at the destination's load;
* where no path exists (or reuse would conflict), a test multiplexer is
  added and integrated with the destination flip-flops, fed from a
  dedicated scan-in pin.

Registers are handled at *slice* granularity (scan units), so C-split
registers whose halves load from different sources scan correctly.  The
insertion is a greedy minimum-cost assignment with bit-occupancy and
acyclicity constraints; the result is a set of parallel chains running
from circuit inputs (or scan-in pins) to circuit outputs (or scan-out
pins), exactly the structure Figure 4(a) of the paper shows for the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dft.scan import (
    COST_DIRECT_LINK,
    COST_MUX_PATH_LINK,
    COST_NEW_SCAN_OUT,
    COST_OBS_MUX,
    COST_TEST_MUX_PER_BIT,
    ObservationLink,
    ScanLink,
    ScanUnit,
)
from repro.errors import DftError
from repro.obs import METRICS, profile_section
from repro.rtl.arcs import Arc, extract_arcs
from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Mux, Operator, Register
from repro.rtl.types import OpKind, Slice, concat, slice_expr

_INSERTIONS = METRICS.counter("corelevel.hscan.insertions")

SCAN_ENABLE = "scan_en"
SCAN_IN = "scan_in"
SCAN_OUT_PREFIX = "scan_out"


@dataclass
class HscanResult:
    """Everything HSCAN insertion decided for one core."""

    circuit: RTLCircuit
    #: the circuit's transfer arcs the plan was built from
    arcs: List[Arc]
    units: List[ScanUnit] = field(default_factory=list)
    links: List[ScanLink] = field(default_factory=list)
    observations: List[ObservationLink] = field(default_factory=list)
    scan_in_width: int = 0
    scan_out_count: int = 0
    extra_area: int = 0
    depth: int = 0
    chains: List[List[ScanUnit]] = field(default_factory=list)


def insert_hscan(circuit: RTLCircuit) -> HscanResult:
    """Plan HSCAN for ``circuit`` (does not modify it; see apply_hscan)."""
    with profile_section("corelevel.hscan"):
        result = _insert_hscan(circuit)
    _INSERTIONS.inc()
    return result


def _insert_hscan(circuit: RTLCircuit) -> HscanResult:
    arcs = extract_arcs(circuit)
    register_arcs = [a for a in arcs if not a.dest_is_output]
    output_arcs = [a for a in arcs if a.dest_is_output]

    units = _partition_units(circuit, register_arcs)
    units_by_register: Dict[str, List[ScanUnit]] = {}
    for unit in units:
        units_by_register.setdefault(unit.comp, []).append(unit)

    # greedy assignment state
    source_occupancy: Dict[str, int] = {}
    successors: Dict[ScanUnit, List[ScanUnit]] = {unit: [] for unit in units}
    links: List[ScanLink] = []
    scan_in_offset = 0

    def slice_mask(s: Slice) -> int:
        return ((1 << s.width) - 1) << s.lo

    def overlapping_units(s: Slice) -> List[ScanUnit]:
        return [u for u in units_by_register.get(s.comp, []) if u.lo < s.hi and s.lo < u.hi]

    def creates_cycle(dest: ScanUnit, source: Slice) -> bool:
        if source.comp not in units_by_register:
            return False  # source is an input
        targets = set(overlapping_units(source))
        if dest in targets:
            return True
        stack = [dest]
        seen = {dest}
        while stack:
            node = stack.pop()
            for succ in successors[node]:
                if succ in targets:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # candidate links per unit, computed once
    unit_candidates: Dict[ScanUnit, List[ScanLink]] = {unit: [] for unit in units}
    for unit in units:
        for arc in register_arcs:
            if arc.dest != unit.comp:
                continue
            if not (arc.dest_lo <= unit.lo and unit.hi <= arc.dest_lo + arc.width):
                continue
            source = arc.source.sub(unit.lo - arc.dest_lo, unit.width)
            cost = COST_DIRECT_LINK if arc.is_direct else COST_MUX_PATH_LINK
            unit_candidates[unit].append(
                ScanLink(unit, source, "direct" if arc.is_direct else "mux", cost, arc.mux_path)
            )

    # Most-constrained-first: units with fewer scan-in alternatives claim
    # their sources before richer units steal them (so a pipeline's head
    # register wins the circuit input and chains grow forward).
    assigned_depth: Dict[ScanUnit, int] = {}

    def source_depth(source: Slice) -> int:
        """Chain depth the source sits at (0 for inputs; inf if unassigned)."""
        if source.comp not in units_by_register:
            return 0
        depths = [
            assigned_depth.get(u)
            for u in overlapping_units(source)
        ]
        if any(d is None for d in depths):
            return 1 << 20
        return max(depths)  # type: ignore[type-var]

    ordering = sorted(units, key=lambda u: (len(unit_candidates[u]), u.comp, u.lo))
    for unit in ordering:
        ranked = sorted(
            unit_candidates[unit],
            key=lambda link: (
                link.cost,
                source_depth(link.source),
                0 if link.source.comp not in units_by_register else 1,
                str(link.source),
            ),
        )
        chosen: Optional[ScanLink] = None
        for link in ranked:
            mask = slice_mask(link.source)
            if source_occupancy.get(link.source.comp, 0) & mask:
                continue
            if creates_cycle(unit, link.source):
                continue
            chosen = link
            break
        if chosen is None:
            source = Slice(SCAN_IN, scan_in_offset, unit.width)
            scan_in_offset += unit.width
            chosen = ScanLink(unit, source, "testmux", COST_TEST_MUX_PER_BIT * unit.width)
        links.append(chosen)
        source_occupancy[chosen.source.comp] = source_occupancy.get(
            chosen.source.comp, 0
        ) | slice_mask(chosen.source)
        assigned_depth[unit] = 1 + source_depth(chosen.source) if source_depth(
            chosen.source
        ) < (1 << 20) else 1
        for src_unit in overlapping_units(chosen.source):
            successors[src_unit].append(unit)

    # ------------------------------------------------------------------
    # observation of chain tails
    # ------------------------------------------------------------------
    observations: List[ObservationLink] = []
    output_occupancy: Dict[str, int] = {}
    scan_out_count = 0
    tails = [unit for unit in sorted(units) if not successors[unit]]
    for tail in tails:
        chosen_obs: Optional[ObservationLink] = None
        obs_candidates: List[Tuple[int, ObservationLink]] = []
        for arc in output_arcs:
            src = arc.source
            if src.comp != tail.comp:
                continue
            if not (src.lo <= tail.lo and tail.hi <= src.hi):
                continue
            out_lo = arc.dest_lo + (tail.lo - src.lo)
            cost = 0 if arc.is_direct else COST_OBS_MUX
            kind = "direct" if arc.is_direct else "mux"
            obs_candidates.append(
                (cost, ObservationLink(tail, arc.dest, out_lo, kind, cost, arc.mux_path))
            )
        for cost, obs in sorted(obs_candidates, key=lambda c: (c[0], str(c[1].output))):
            mask = ((1 << tail.width) - 1) << obs.output_lo
            if output_occupancy.get(obs.output, 0) & mask:  # type: ignore[arg-type]
                continue
            chosen_obs = obs
            break
        if chosen_obs is None:
            chosen_obs = ObservationLink(tail, None, 0, "pin", COST_NEW_SCAN_OUT)
            scan_out_count += 1
        else:
            mask = ((1 << tail.width) - 1) << chosen_obs.output_lo
            output_occupancy[chosen_obs.output] = (  # type: ignore[index]
                output_occupancy.get(chosen_obs.output, 0) | mask
            )
        observations.append(chosen_obs)

    # ------------------------------------------------------------------
    # depth and chains
    # ------------------------------------------------------------------
    link_by_dest = {link.dest: link for link in links}
    depth_cache: Dict[ScanUnit, int] = {}

    def unit_depth(unit: ScanUnit) -> int:
        cached = depth_cache.get(unit)
        if cached is not None:
            return cached
        depth_cache[unit] = 0  # break unexpected cycles defensively
        link = link_by_dest[unit]
        preds = overlapping_units(link.source)
        depth = 1 + (max((unit_depth(p) for p in preds), default=0))
        depth_cache[unit] = depth
        return depth

    depth = max((unit_depth(u) for u in units), default=0)

    chains: List[List[ScanUnit]] = []
    visited: Set[ScanUnit] = set()
    heads = [
        u
        for u in sorted(units)
        if link_by_dest[u].source.comp not in units_by_register
    ]
    for head in heads:
        chain = []
        node: Optional[ScanUnit] = head
        while node is not None and node not in visited:
            visited.add(node)
            chain.append(node)
            nexts = [n for n in successors[node] if n not in visited]
            node = nexts[0] if nexts else None
        chains.append(chain)
    leftovers = [u for u in sorted(units) if u not in visited]
    for head in leftovers:
        if head in visited:
            continue
        chain = []
        node = head
        while node is not None and node not in visited:
            visited.add(node)
            chain.append(node)
            nexts = [n for n in successors[node] if n not in visited]
            node = nexts[0] if nexts else None
        chains.append(chain)

    extra_area = sum(link.cost for link in links) + sum(obs.cost for obs in observations)
    return HscanResult(
        circuit=circuit,
        arcs=arcs,
        units=units,
        links=links,
        observations=observations,
        scan_in_width=scan_in_offset,
        scan_out_count=scan_out_count,
        extra_area=extra_area,
        depth=depth,
        chains=chains,
    )


def _partition_units(circuit: RTLCircuit, register_arcs: List[Arc]) -> List[ScanUnit]:
    """Cut every register at the arc boundaries that touch it."""
    units: List[ScanUnit] = []
    for register in circuit.registers:
        cuts = {0, register.width}
        for arc in register_arcs:
            if arc.dest == register.name:
                cuts.add(arc.dest_lo)
                cuts.add(arc.dest_lo + arc.width)
        ordered = sorted(c for c in cuts if 0 <= c <= register.width)
        for lo, hi in zip(ordered, ordered[1:]):
            units.append(ScanUnit(register.name, lo, hi - lo))
    return units


# ----------------------------------------------------------------------
# applying the plan to the RTL
# ----------------------------------------------------------------------
def apply_hscan(circuit: RTLCircuit, plan: Optional[HscanResult] = None) -> Tuple[RTLCircuit, HscanResult]:
    """Return a copy of ``circuit`` with the HSCAN plan inserted.

    Adds a ``scan_en`` input (plus ``scan_in``/``scan_out`` pins when the
    plan needs them); every register's driver becomes a mux between its
    functional driver and its scan source, registers with enables load
    unconditionally in scan mode, and tail observations are muxed onto
    output ports.  Synthesized components are prefixed ``scan_`` for area
    accounting.
    """
    if plan is None:
        plan = insert_hscan(circuit)
    modified = circuit.copy(circuit.name + "_hscan")
    from repro.rtl.components import Input, Output  # local import to avoid cycles

    modified.add(Input(SCAN_ENABLE, 1))
    scan_en = Slice(SCAN_ENABLE, 0, 1)
    if plan.scan_in_width:
        modified.add(Input(SCAN_IN, plan.scan_in_width))

    links_by_register: Dict[str, List[ScanLink]] = {}
    for link in plan.links:
        links_by_register.setdefault(link.dest.comp, []).append(link)

    for register_name, register_links in links_by_register.items():
        register: Register = modified.get(register_name)  # type: ignore[assignment]
        ordered = sorted(register_links, key=lambda l: l.dest.lo)
        if sum(l.dest.width for l in ordered) != register.width:
            raise DftError(f"scan links do not cover register {register_name!r}")
        scan_source = concat(*[link.source for link in ordered])
        scan_mux = Mux(
            f"scan_mux_{register_name}",
            register.width,
            inputs=[register.driver, scan_source],
            select=scan_en,
        )
        modified.add(scan_mux)
        register.driver = Slice(scan_mux.name, 0, register.width)
        if register.enable is not None:
            force = Operator(
                f"scan_force_{register_name}",
                1,
                op=OpKind.OR,
                operands=[register.enable, scan_en],
            )
            modified.add(force)
            register.enable = Slice(force.name, 0, 1)

    # observation muxes / pins
    by_output: Dict[str, List[ObservationLink]] = {}
    pin_index = 0
    for obs in plan.observations:
        if obs.output is None:
            out = Output(f"{SCAN_OUT_PREFIX}{pin_index}", obs.tail.width, driver=obs.tail.as_slice())
            modified.add(out)
            pin_index += 1
        else:
            by_output.setdefault(obs.output, []).append(obs)

    for output_name, obs_list in by_output.items():
        output: Output = modified.get(output_name)  # type: ignore[assignment]
        pieces = []
        cursor = 0
        for obs in sorted(obs_list, key=lambda o: o.output_lo):
            if obs.output_lo > cursor:
                pieces.append(slice_expr(output.driver, cursor, obs.output_lo - cursor))
            pieces.append(obs.tail.as_slice())
            cursor = obs.output_lo + obs.tail.width
        if cursor < output.width:
            pieces.append(slice_expr(output.driver, cursor, output.width - cursor))
        scan_view = concat(*pieces)
        obs_mux = Mux(
            f"scan_omux_{output_name}",
            output.width,
            inputs=[output.driver, scan_view],
            select=scan_en,
        )
        modified.add(obs_mux)
        output.driver = Slice(obs_mux.name, 0, output.width)

    from repro.rtl.validate import validate_circuit

    validate_circuit(modified)
    return modified, plan
