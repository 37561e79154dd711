"""Synthesis of core transparency *versions* (latency/area trade-off).

The paper's recipe (Section 4):

* **Version 1** -- transparency through HSCAN edges wherever possible,
  falling back to other existing paths, then to added transparency
  muxes.  Minimal extra area (freeze logic only, in the common case).
* **Version 2** -- all existing RCG edges are fair game from the start,
  buying latency with select-forcing/load logic on non-HSCAN paths
  (the CPU's mux-M shortcut: Data -> Address(7:0) in one cycle).
* **Version 3** -- transparency multiplexers are added for every
  input/output pair still slower than one cycle (Figure 5's shaded mux).

Each version records, per port slice, the transparency path that the
chip-level planner (:mod:`repro.soc.plan`) routes test data through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dft.hscan import HscanResult, insert_hscan
from repro.errors import TransparencyError
from repro.obs import METRICS, profile_section
from repro.rtl.circuit import RTLCircuit
from repro.rtl.types import ComponentKind, Slice
from repro.transparency.rcg import RCG, TransArc
from repro.transparency.search import (
    FREEZE_COST_NO_ENABLE,
    FREEZE_COST_WITH_ENABLE,
    TransparencyPath,
    TransparencySearch,
)

#: cells for an added transparency multiplexer of width w: per-bit mux + select
TMUX_BASE_COST = 2
TMUX_PER_BIT = 2

#: versions synthesized per core at most (the paper's Versions 1-3)
MAX_VERSIONS = 3


def _tmux_cost(width: int) -> int:
    return TMUX_PER_BIT * width + TMUX_BASE_COST


def _non_hscan_arc_cost(arc: TransArc) -> int:
    """Cells to steer a non-HSCAN existing edge in transparency mode."""
    if arc.mux_path:
        return 2 * len(arc.mux_path) + arc.width
    return max(1, arc.width // 2)


@dataclass
class CoreVersion:
    """One synthesized transparency version of a core."""

    core: str
    name: str
    index: int
    extra_cells: int
    justify_paths: Dict[Tuple[str, int, int], TransparencyPath] = field(default_factory=dict)
    propagate_paths: Dict[str, TransparencyPath] = field(default_factory=dict)
    added_muxes: List[TransArc] = field(default_factory=list)
    rcg: Optional[RCG] = None

    def justify_latency(self, output: str, lo: int = 0, width: Optional[int] = None) -> int:
        """Latency to justify one output slice (exact slice key match)."""
        if width is None:
            # whole-port query: combine all slices of the output
            slices = [key for key in self.justify_paths if key[0] == output]
            if not slices:
                raise TransparencyError(f"no justification for {output!r} in {self.name}")
            return self.combined_justify_latency(slices)
        path = self.justify_paths.get((output, lo, width))
        if path is None:
            raise TransparencyError(f"no justification for {output}[{lo}+{width}] in {self.name}")
        return path.latency

    def combined_justify_latency(self, slice_keys: List[Tuple[str, int, int]]) -> int:
        """Latency to have *all* the given output slices valid at once.

        Paths sharing any resource (RCG arc or source input port) must
        transfer sequentially -- their latencies add; disjoint groups
        run in parallel -- the maximum governs.  This reproduces the
        CPU's 6+2=8 (V1), 1+2=3 (V2), 1+1=2 (V3) totals.
        """
        paths = []
        for key in slice_keys:
            path = self.justify_paths.get(tuple(key))
            if path is None:
                raise TransparencyError(f"no justification for {key} in {self.name}")
            paths.append(path)
        return _combined_latency(paths)

    @cached_property
    def mux_selects(self) -> Tuple[str, ...]:
        """Sorted names of the muxes whose selects this version's paths force.

        The test controller drives one select line per name.  Computed on
        first use, once: :meth:`repro.soc.Soc.invalidate` drops it after
        an in-place edit of the paths.
        """
        names = set()
        for path in list(self.justify_paths.values()) + list(self.propagate_paths.values()):
            for _, _, mux_path in path.arcs_used:
                names.update(mux_name for mux_name, _ in mux_path)
        return tuple(sorted(names))

    def signature(self) -> Tuple:
        """Per-port latencies; identical signatures mean redundant versions."""
        justify = tuple(sorted((k, p.latency) for k, p in self.justify_paths.items()))
        propagate = tuple(sorted((k, p.latency) for k, p in self.propagate_paths.items()))
        return (justify, propagate)


def _combined_latency(paths: List[TransparencyPath]) -> int:
    groups: List[Tuple[FrozenSet, int]] = []  # (resources, summed latency)
    for path in paths:
        merged_resources, merged_latency = path.resources, path.latency
        remaining = []
        for group_resources, group_latency in groups:
            if group_resources.isdisjoint(merged_resources):
                remaining.append((group_resources, group_latency))
            else:
                merged_resources = merged_resources | group_resources
                merged_latency += group_latency
        remaining.append((merged_resources, merged_latency))
        groups = remaining
    return max((latency for _, latency in groups), default=0)


# ----------------------------------------------------------------------
# version generation
# ----------------------------------------------------------------------
def generate_versions(
    circuit: RTLCircuit, hscan_plan: Optional[HscanResult] = None
) -> List[CoreVersion]:
    """Synthesize up to :data:`MAX_VERSIONS` transparency versions.

    Version 1 prefers HSCAN edges; Version 2 allows every existing RCG
    edge (kept only if it actually improves some latency); subsequent
    versions add transparency multiplexers *one input/output pair at a
    time*, worst pair first, exactly as Section 4 describes.
    """
    with profile_section("transparency.versions"):
        if hscan_plan is None:
            hscan_plan = insert_hscan(circuit)
        rcg = RCG.from_circuit(circuit, hscan_plan)

        versions: List[CoreVersion] = []
        v1 = _solve_version(circuit, rcg, name="Version 1", index=0, hscan_first=True)
        versions.append(v1)

        v2 = _solve_version(circuit, rcg, name="Version 2", index=1, hscan_first=False)
        if v2.signature() != v1.signature():
            versions.append(v2)

        while len(versions) < MAX_VERSIONS:
            improved = _improve_worst_pair(circuit, versions[-1], index=len(versions))
            if improved is None or improved.signature() == versions[-1].signature():
                break
            versions.append(improved)
        METRICS.counter("transparency.versions.synthesized").inc(len(versions))

    for i, version in enumerate(versions):
        version.index = i
        version.name = f"Version {i + 1}"
    return versions


def _improve_worst_pair(
    circuit: RTLCircuit, base: CoreVersion, index: int
) -> Optional[CoreVersion]:
    """Add transparency mux(es) for the slowest pair still above one cycle.

    A "pair" is an input/output *port* pair (the granularity of Figures
    6 and 8); all slices of the slowest output port slower than one
    cycle get a mux in the same version.
    """
    assert base.rcg is not None
    # worst justify latency per output port
    port_worst: Dict[str, int] = {}
    for (port, _, _), path in base.justify_paths.items():
        port_worst[port] = max(port_worst.get(port, 0), path.latency)
    worst: Optional[Tuple[int, str, str]] = None  # (latency, kind, port)
    for port in sorted(port_worst):
        if port_worst[port] > 1 and (worst is None or port_worst[port] > worst[0]):
            worst = (port_worst[port], "justify", port)
    for input_name, path in sorted(base.propagate_paths.items()):
        if path.latency > 1 and (worst is None or path.latency > worst[0]):
            worst = (path.latency, "propagate", input_name)
    if worst is None:
        return None

    _, kind, port = worst
    extra: List[TransArc] = []
    if kind == "justify":
        working = base.rcg
        for key, path in sorted(base.justify_paths.items()):
            if key[0] != port or path.latency <= 1:
                continue
            arcs = _fallback_justify_mux(working, Slice(*key))
            extra.extend(arcs)
            if arcs:
                working = working.with_extra_arcs(arcs)
    else:
        source = Slice(port, 0, base.rcg.nodes[port].width)
        extra = _fallback_propagate_mux(base.rcg, source)
    if not extra:
        return None
    return _solve_version(
        circuit,
        base.rcg.with_extra_arcs(extra),
        name=f"Version {index + 1}",
        index=index,
        hscan_first=False,
        carried=base.added_muxes + extra,
    )


def _iter_targets(rcg: RCG) -> Tuple[List[Slice], List[Slice]]:
    outputs = []
    for output in sorted(rcg.output_names()):
        outputs.extend(rcg.output_slices(output))
    inputs = [
        Slice(name, 0, rcg.nodes[name].width) for name in sorted(rcg.input_names())
    ]
    return outputs, inputs


def _solve_version(
    circuit: RTLCircuit,
    rcg: RCG,
    name: str,
    index: int,
    hscan_first: bool,
    carried: Sequence[TransArc] = (),
) -> CoreVersion:
    """Solve every port on ``rcg``; ``carried`` are the muxes it already holds."""
    version = CoreVersion(core=circuit.name, name=name, index=index, extra_cells=0, rcg=rcg)
    output_slices, input_slices = _iter_targets(rcg)
    used_arcs: Set[Tuple] = set()
    added: List[TransArc] = []
    working_rcg = rcg

    def searchers(current: RCG) -> List[TransparencySearch]:
        stages = []
        if hscan_first:
            stages.append(TransparencySearch(current, hscan_only=True, avoid_arcs=used_arcs))
        stages.append(TransparencySearch(current, hscan_only=False, avoid_arcs=used_arcs))
        return stages

    for target in output_slices:
        path = None
        for search in searchers(working_rcg):
            path = search.justify(target)
            if path is not None:
                break
        if path is None:
            mux_arcs = _fallback_justify_mux(working_rcg, target)
            if not mux_arcs:
                raise TransparencyError(
                    f"cannot make output slice {target} of {circuit.name!r} transparent"
                )
            added.extend(mux_arcs)
            working_rcg = working_rcg.with_extra_arcs(mux_arcs)
            path = TransparencySearch(working_rcg).justify(target)
            if path is None:
                raise TransparencyError(f"added mux failed to justify {target}")
        version.justify_paths[(target.comp, target.lo, target.width)] = path
        used_arcs |= set(path.arcs_used)

    for source in input_slices:
        path = None
        for search in searchers(working_rcg):
            path = search.propagate(source)
            if path is not None:
                break
        if path is None:
            mux_arcs = _fallback_propagate_mux(working_rcg, source)
            if not mux_arcs:
                raise TransparencyError(
                    f"cannot propagate input {source} of {circuit.name!r}"
                )
            added.extend(mux_arcs)
            working_rcg = working_rcg.with_extra_arcs(mux_arcs)
            path = TransparencySearch(working_rcg).propagate(source)
            if path is None:
                raise TransparencyError(f"added mux failed to propagate {source}")
        version.propagate_paths[source.comp] = path
        used_arcs |= set(path.arcs_used)

    version.added_muxes = [*carried, *added]
    version.rcg = working_rcg
    version.extra_cells = _version_cost(circuit, version)
    return version


def _fallback_justify_mux(rcg: RCG, target: Slice) -> List[TransArc]:
    """Transparency mux(es) making ``target`` justifiable in one cycle.

    Following Figure 5: the mux feeds the register driving the output
    slice straight from a core input.  If no single input is wide
    enough, the target is split across several inputs ("or a
    combination of inputs", Section 3).
    """
    # the register currently feeding the output slice, if any
    feeder: Optional[Slice] = None
    for arc in rcg.arcs_into(target.comp):
        if arc.dest.lo <= target.lo and target.hi <= arc.dest.hi:
            if rcg.circuit.get(arc.source.comp).kind is ComponentKind.REGISTER:
                feeder = arc.source.sub(target.lo - arc.dest.lo, target.width)
                break
    landing = feeder if feeder is not None else target
    latency = 1 if feeder is not None else 0

    arcs: List[TransArc] = []
    remaining = landing.width
    offset = 0
    for input_name in sorted(rcg.input_names(), key=lambda n: -rcg.nodes[n].width):
        if remaining == 0:
            break
        take = min(remaining, rcg.nodes[input_name].width)
        arcs.append(
            TransArc(Slice(input_name, 0, take), landing.sub(offset, take), (), latency, False)
        )
        offset += take
        remaining -= take
    return arcs if remaining == 0 else []


def _fallback_propagate_mux(rcg: RCG, source: Slice) -> List[TransArc]:
    """Transparency mux(es) carrying ``source`` to output(s) in one cycle.

    Picks a register loadable from the input in one cycle and muxes it
    onto output port(s); wide sources spread across several outputs
    ("an output (or outputs if bit-widths mismatch)", Section 4).
    """
    landing: Optional[Slice] = None
    for arc in rcg.arcs_from(source.comp):
        if rcg.circuit.get(arc.dest.comp).kind is ComponentKind.REGISTER:
            if arc.source.lo <= source.lo and source.hi <= arc.source.hi:
                landing = arc.dest.sub(source.lo - arc.source.lo, source.width)
                break
    carried = landing if landing is not None else source

    arcs: List[TransArc] = []
    remaining = carried.width
    offset = 0
    for output_name in sorted(rcg.output_names(), key=lambda n: -rcg.nodes[n].width):
        if remaining == 0:
            break
        take = min(remaining, rcg.nodes[output_name].width)
        arcs.append(
            TransArc(carried.sub(offset, take), Slice(output_name, 0, take), (), 0, False)
        )
        offset += take
        remaining -= take
    return arcs if remaining == 0 else []


def _version_cost(circuit: RTLCircuit, version: CoreVersion) -> int:
    """Extra transparency cells: freezes + non-HSCAN steering + muxes.

    Each arc is charged once however many paths ride it; the set
    operations reuse the hashes the paths' ``arcs_used`` already hold.
    """
    paths = [*version.justify_paths.values(), *version.propagate_paths.values()]
    frozen = {register_name for path in paths for register_name, _ in path.freezes}
    added_keys = {arc.key() for arc in version.added_muxes}
    steered = frozenset().union(*(path.arcs_used for path in paths)) - added_keys
    cells = 0
    for register_name in frozen:
        register = circuit.get(register_name)
        has_enable = getattr(register, "enable", None) is not None
        cells += FREEZE_COST_WITH_ENABLE if has_enable else FREEZE_COST_NO_ENABLE
    for key in steered:
        arc = version.rcg.arc_by_key.get(key)
        if arc is not None and not arc.hscan:
            cells += _non_hscan_arc_cost(arc)
    for arc in version.added_muxes:
        cells += _tmux_cost(arc.width)
    return cells
