"""Flatten an SOC into a single gate-level netlist.

Each core's circuit (original or with HSCAN applied) is elaborated with
a ``<core>::`` name prefix; interconnect nets replace the core-input
INPUT gates with buffers from the driving bits.  The result simulates
the whole chip -- what the "Orig." and "HSCAN" columns of Table 3 are
measured on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dft.hscan import apply_hscan
from repro.elaborate import elaborate
from repro.errors import SocError
from repro.gates.cells import GateKind
from repro.gates.netlist import GateNetlist
from repro.soc.system import Soc


def flatten_soc(
    soc: Soc,
    with_hscan: bool = False,
    scan_access: str = "enable",
) -> GateNetlist:
    """Elaborate and stitch the whole SOC into one netlist.

    ``with_hscan`` applies each (non-memory) core's HSCAN plan first.
    ``scan_access`` controls what happens to the cores' scan pins in the
    flattened chip -- the crux of the paper's "HSCAN without chip-level
    DFT" row:

    * ``"none"``: scan enables and scan-in data are tied low (no chip
      routing exists to reach them);
    * ``"enable"`` (default): the scan enables surface as chip pins but
      serial scan-in data is tied low -- individual cores are testable,
      the chip is not;
    * ``"full"``: every scan pin surfaces as a chip pin.
    """
    if scan_access not in ("none", "enable", "full"):
        raise SocError(f"unknown scan_access mode {scan_access!r}")
    flat = GateNetlist(f"{soc.name}{'_hscan' if with_hscan else ''}_flat")

    # 1. chip pins
    for pin, width in soc.chip_inputs.items():
        for i in range(width):
            flat.add_gate(f"{pin}.{i}", GateKind.INPUT)

    # 2. per-core elaboration with prefixes
    core_input_bits: Dict[str, List[str]] = {}
    for core in soc.cores.values():
        circuit = core.circuit
        if with_hscan and not core.is_memory and core.hscan is not None:
            circuit, _ = apply_hscan(core.circuit, core.hscan)
        elaborated = elaborate(circuit)
        prefix = f"{core.name}::"
        for gate in elaborated.netlist.gates():
            # core-level port markers become plain buffers: inside the
            # chip they are ordinary nets, not observation points
            kind = GateKind.BUF if gate.kind is GateKind.OUTPUT else gate.kind
            flat.add_gate(prefix + gate.name, kind, [prefix + f for f in gate.fanins])
        for port in circuit.inputs:
            core_input_bits[f"{core.name}.{port.name}"] = [
                prefix + bit for bit in elaborated.input_bits(port.name)
            ]
        # scan pins: tie off what chip-level routing cannot reach
        if with_hscan and not core.is_memory:
            tied = []
            if scan_access in ("none", "enable"):
                tied.append("scan_in")
            if scan_access == "none":
                tied.append("scan_en")
            for pin in tied:
                if pin in circuit:
                    for bit in elaborated.input_bits(pin):
                        flat.replace_gate(prefix + bit, GateKind.CONST0, [])

    # 3. interconnect: replace driven core-input INPUT gates with buffers
    for net in soc.nets:
        source_bits = _source_bits(flat, net)
        if net.dest.core is None:
            for i, bit in enumerate(source_bits):
                name = f"PO_{net.dest.port}.{net.dest.lo + i}"
                if name not in flat:
                    flat.add_gate(name, GateKind.OUTPUT, [bit])
            continue
        dest_bits = core_input_bits[f"{net.dest.core}.{net.dest.port}"]
        for i, bit in enumerate(source_bits):
            target = dest_bits[net.dest.lo + i]
            flat.replace_gate(target, GateKind.BUF, [bit])

    return flat.validate()


def _source_bits(flat: GateNetlist, net) -> List[str]:
    if net.source.core is None:
        return [f"{net.source.port}.{net.source.lo + i}" for i in range(net.source.width)]
    prefix = f"{net.source.core}::"
    bits = []
    for i in range(net.source.width):
        name = f"{prefix}{net.source.port}.{net.source.lo + i}"
        marker = flat.gate(name)
        if marker.kind is not GateKind.BUF:
            raise SocError(f"expected buffered port marker at {name!r}")
        bits.append(marker.fanins[0])
    return bits
