"""Flat gate-level netlist.

A :class:`GateNetlist` is a dict of named single-output gates; a gate's
fanins are names of other gates.  State elements (``DFF``/``SDFF``) break
combinational cycles.  The *combinational view* used by scan-based ATPG
treats flip-flop outputs as pseudo-primary inputs and flip-flop D pins as
pseudo-primary outputs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import NetlistError
from repro.gates.cells import SOURCE_KINDS, STATE_KINDS, GateKind, gate_area


@dataclass
class Gate:
    """A single-output gate instance."""

    name: str
    kind: GateKind
    fanins: Tuple[str, ...] = ()

    def area(self) -> int:
        return gate_area(self.kind, len(self.fanins))


class GateNetlist:
    """A named, flat collection of gates.

    Primary outputs are explicit ``OUTPUT`` marker gates (zero area, one
    fanin); primary inputs are ``INPUT`` gates with no fanin.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._gates: Dict[str, Gate] = {}
        self._fanout_cache: Optional[Dict[str, List[str]]] = None
        #: mutation stamp: bumped by every structural edit, so derived
        #: per-netlist structures (see :class:`NetlistCache`) can tell
        #: they went stale
        self.stamp = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(self, name: str, kind: GateKind, fanins: Iterable[str] = ()) -> str:
        if name in self._gates:
            raise NetlistError(f"duplicate gate name {name!r} in netlist {self.name!r}")
        fanin_tuple = tuple(fanins)
        _check_arity(name, kind, len(fanin_tuple))
        self._gates[name] = Gate(name, kind, fanin_tuple)
        self._mutated()
        return name

    def replace_gate(self, name: str, kind: GateKind, fanins: Iterable[str]) -> None:
        """Overwrite an existing gate (used by DFT insertion)."""
        if name not in self._gates:
            raise NetlistError(f"cannot replace unknown gate {name!r}")
        fanin_tuple = tuple(fanins)
        _check_arity(name, kind, len(fanin_tuple))
        self._gates[name] = Gate(name, kind, fanin_tuple)
        self._mutated()

    def _mutated(self) -> None:
        self._fanout_cache = None
        self.stamp += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r} in netlist {self.name!r}") from None

    def gates(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def names(self) -> Iterator[str]:
        return iter(self._gates.keys())

    def of_kind(self, *kinds: GateKind) -> List[Gate]:
        wanted = set(kinds)
        return [g for g in self._gates.values() if g.kind in wanted]

    @property
    def inputs(self) -> List[Gate]:
        return self.of_kind(GateKind.INPUT)

    @property
    def outputs(self) -> List[Gate]:
        return self.of_kind(GateKind.OUTPUT)

    @property
    def flops(self) -> List[Gate]:
        return self.of_kind(*STATE_KINDS)

    def fanout_map(self) -> Dict[str, List[str]]:
        """Gate name -> names of gates that read it (cached)."""
        if self._fanout_cache is None:
            fanout: Dict[str, List[str]] = {name: [] for name in self._gates}
            for gate in self._gates.values():
                for source in gate.fanins:
                    fanout[source].append(gate.name)
            self._fanout_cache = fanout
        return self._fanout_cache

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def area(self) -> int:
        """Total area in cell units."""
        return sum(gate.area() for gate in self._gates.values())

    def flop_count(self) -> int:
        return len(self.flops)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "GateNetlist":
        for gate in self._gates.values():
            for source in gate.fanins:
                if source not in self._gates:
                    raise NetlistError(f"gate {gate.name!r} reads unknown net {source!r}")
                if self._gates[source].kind is GateKind.OUTPUT:
                    raise NetlistError(f"gate {gate.name!r} reads OUTPUT marker {source!r}")
        # combinational cycle check: DFS skipping state/source gates
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._gates}
        for start, gate in self._gates.items():
            if gate.kind in SOURCE_KINDS or color[start] != WHITE:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [(start, iter(gate.fanins))]
            color[start] = GREY
            while stack:
                node, iterator = stack[-1]
                advanced = False
                for source in iterator:
                    if self._gates[source].kind in SOURCE_KINDS:
                        continue
                    if color[source] == GREY:
                        raise NetlistError(f"combinational cycle through {source!r}")
                    if color[source] == WHITE:
                        color[source] = GREY
                        stack.append((source, iter(self._gates[source].fanins)))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return self

    # ------------------------------------------------------------------
    def copy(self, new_name: Optional[str] = None) -> "GateNetlist":
        clone = GateNetlist(new_name or self.name)
        clone._gates = {name: Gate(g.name, g.kind, g.fanins) for name, g in self._gates.items()}
        return clone


T = TypeVar("T")


class NetlistCache(Generic[T]):
    """Structures derived from a netlist, cached once per netlist.

    Entries are keyed weakly on the netlist object and tagged with its
    :attr:`GateNetlist.stamp`; after ``add_gate``/``replace_gate`` the tag
    no longer matches and the next lookup rebuilds.  Every per-netlist
    cache (levelization, depth levels, compiled kernels, the PODEM
    structure) goes through this one invalidation rule.
    """

    def __init__(self) -> None:
        self._entries: "weakref.WeakKeyDictionary[GateNetlist, Tuple[int, T]]" = (
            weakref.WeakKeyDictionary()
        )

    def get(self, netlist: GateNetlist, build: Optional[Callable[[], T]] = None) -> Optional[T]:
        """The fresh entry for ``netlist``; on a miss, ``build()``'s result
        (stored) or ``None`` without a builder."""
        try:
            entry = self._entries.get(netlist)
        except TypeError:  # unweakrefable netlist stand-in (tests): never cached
            return build() if build is not None else None
        if entry is not None and entry[0] == netlist.stamp:
            return entry[1]
        if build is None:
            return None
        value = build()
        self._entries[netlist] = (netlist.stamp, value)
        return value

    def clear(self) -> None:
        self._entries.clear()


def _check_arity(name: str, kind: GateKind, count: int) -> None:
    if kind is GateKind.INPUT or kind in (GateKind.CONST0, GateKind.CONST1):
        expected = count == 0
    elif kind in (GateKind.OUTPUT, GateKind.BUF, GateKind.NOT, GateKind.DFF):
        expected = count == 1
    elif kind in (GateKind.XOR, GateKind.XNOR):
        expected = count == 2
    elif kind is GateKind.MUX2:
        expected = count == 3
    elif kind is GateKind.SDFF:
        expected = count == 3
    else:  # AND / OR / NAND / NOR
        expected = count >= 2
    if not expected:
        raise NetlistError(f"gate {name!r} of kind {kind.value} has invalid fanin count {count}")
