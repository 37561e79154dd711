"""Topological levelization of the combinational part of a gate netlist."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import NetlistError
from repro.gates.cells import SOURCE_KINDS
from repro.gates.netlist import GateNetlist, NetlistCache

_ORDER_CACHE: "NetlistCache[Tuple[str, ...]]" = NetlistCache()
_DEPTH_CACHE: "NetlistCache[Dict[str, int]]" = NetlistCache()


def levelize(netlist: GateNetlist) -> Tuple[str, ...]:
    """Return gate names in evaluation order.

    Sources (inputs, constants, flip-flop outputs) come first, then every
    combinational gate after all of its fanins.  Raises
    :class:`NetlistError` on a combinational cycle.  Computed once per
    netlist (until it is edited) and returned as a read-only tuple.
    """
    return _ORDER_CACHE.get(netlist, lambda: _levelize(netlist))


def _levelize(netlist: GateNetlist) -> Tuple[str, ...]:
    order: List[str] = []
    pending: Dict[str, int] = {}
    ready: List[str] = []

    for gate in netlist.gates():
        if gate.kind in SOURCE_KINDS:
            order.append(gate.name)
        else:
            # State elements do not gate their D-pin evaluation order.
            pending[gate.name] = sum(
                1 for source in gate.fanins if netlist.gate(source).kind not in SOURCE_KINDS
            )
            if pending[gate.name] == 0:
                ready.append(gate.name)

    fanout = netlist.fanout_map()
    while ready:
        name = ready.pop()
        order.append(name)
        for reader in fanout[name]:
            if reader in pending:
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
                    del pending[reader]

    unresolved = [name for name, count in pending.items() if count > 0]
    if unresolved:
        raise NetlistError(
            f"combinational cycle involving {sorted(unresolved)[:5]} in {netlist.name!r}"
        )
    return tuple(order)


def depth_levels(netlist: GateNetlist) -> Dict[str, int]:
    """Logic depth of every gate: sources are level 0, a combinational
    gate is one past its deepest non-source fanin.

    This is the level definition the compiled kernels group their ops
    by, shared here so scalar-side consumers (effort attribution, the
    PODEM ledger) bucket identically without importing numpy.  Cached
    per netlist like :func:`levelize`; treat the result as read-only.
    """
    return _DEPTH_CACHE.get(netlist, lambda: _depth_levels(netlist))


def _depth_levels(netlist: GateNetlist) -> Dict[str, int]:
    levels: Dict[str, int] = {}
    for name in levelize(netlist):
        gate = netlist.gate(name)
        if gate.kind in SOURCE_KINDS:
            levels[name] = 0
        else:
            levels[name] = 1 + max(
                (
                    levels[source]
                    for source in gate.fanins
                    if netlist.gate(source).kind not in SOURCE_KINDS
                ),
                default=0,
            )
    return levels
