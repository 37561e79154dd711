"""The SOC: cores, chip pins, and slice-level interconnect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SocError
from repro.soc.core import Core


@dataclass(frozen=True)
class PortRef:
    """A slice of a port: of a core (``core`` set) or of the chip (None)."""

    core: Optional[str]
    port: str
    lo: int
    width: int

    @property
    def hi(self) -> int:
        return self.lo + self.width

    def __str__(self) -> str:
        owner = self.core or "chip"
        if self.width == 1:
            return f"{owner}.{self.port}[{self.lo}]"
        return f"{owner}.{self.port}[{self.hi - 1}:{self.lo}]"


@dataclass(frozen=True)
class Net:
    """A slice-to-slice wire from a driver to a sink (equal widths)."""

    source: PortRef
    dest: PortRef

    def __str__(self) -> str:
        return f"{self.source} -> {self.dest}"


class Soc:
    """A system-on-chip under construction or analysis."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cores: Dict[str, Core] = {}
        self.chip_inputs: Dict[str, int] = {}
        self.chip_outputs: Dict[str, int] = {}
        self.nets: List[Net] = []
        #: every net filed under its (core, port) ends, in connection order
        self._drivers: Dict[Tuple[Optional[str], str], Tuple[Net, ...]] = {}
        self._readers: Dict[Tuple[Optional[str], str], Tuple[Net, ...]] = {}
        #: whether :meth:`validate` has passed since the last structural change
        self._validated = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_core(self, core: Core) -> Core:
        if core.name in self.cores:
            raise SocError(f"duplicate core {core.name!r}")
        self.cores[core.name] = core
        self._validated = False
        return core

    def add_input(self, name: str, width: int) -> None:
        if name in self.chip_inputs or name in self.chip_outputs:
            raise SocError(f"duplicate chip pin {name!r}")
        self.chip_inputs[name] = width

    def add_output(self, name: str, width: int) -> None:
        if name in self.chip_inputs or name in self.chip_outputs:
            raise SocError(f"duplicate chip pin {name!r}")
        self.chip_outputs[name] = width

    def connect(self, source: PortRef, dest: PortRef) -> Net:
        if source.width != dest.width:
            raise SocError(f"net width mismatch: {source} -> {dest}")
        self._check_ref(source, driving=True)
        self._check_ref(dest, driving=False)
        net = Net(source, dest)
        self.nets.append(net)
        sink = (dest.core, dest.port)
        self._drivers[sink] = self._drivers.get(sink, ()) + (net,)
        driver = (source.core, source.port)
        self._readers[driver] = self._readers.get(driver, ()) + (net,)
        self._validated = False
        return net

    def wire(
        self,
        source_core: Optional[str],
        source_port: str,
        dest_core: Optional[str],
        dest_port: str,
        width: Optional[int] = None,
        source_lo: int = 0,
        dest_lo: int = 0,
    ) -> Net:
        """Convenience wrapper around :meth:`connect`."""
        if width is None:
            width = (
                self.chip_inputs.get(source_port)
                if source_core is None
                else self.cores[source_core].port_width(source_port)
            )
            if width is None:
                raise SocError(f"cannot infer width of {source_core}.{source_port}")
        return self.connect(
            PortRef(source_core, source_port, source_lo, width),
            PortRef(dest_core, dest_port, dest_lo, width),
        )

    # ------------------------------------------------------------------
    def _check_ref(self, ref: PortRef, driving: bool) -> None:
        if ref.core is None:
            pins = self.chip_inputs if driving else self.chip_outputs
            if ref.port not in pins:
                kind = "input" if driving else "output"
                raise SocError(f"no chip {kind} named {ref.port!r}")
            if ref.hi > pins[ref.port]:
                raise SocError(f"slice {ref} exceeds pin width {pins[ref.port]}")
            return
        core = self.cores.get(ref.core)
        if core is None:
            raise SocError(f"no core named {ref.core!r}")
        component = core.circuit.get(ref.port)
        expected = "output" if driving else "input"
        if component.kind.value != expected:
            raise SocError(f"{ref} must be a core {expected}")
        if ref.hi > component.width:
            raise SocError(f"slice {ref} exceeds port width {component.width}")

    # ------------------------------------------------------------------
    # queries used by planning
    # ------------------------------------------------------------------
    def drivers_of(self, core: Optional[str], port: str) -> Tuple[Net, ...]:
        """Nets whose destination lies in the given port."""
        return self._drivers.get((core, port), ())

    def readers_of(self, core: Optional[str], port: str) -> Tuple[Net, ...]:
        """Nets whose source lies in the given port."""
        return self._readers.get((core, port), ())

    def testable_cores(self) -> List[Core]:
        """Cores tested through transparency (memories use BIST instead)."""
        return [c for c in self.cores.values() if not c.is_memory]

    def validate(self) -> "Soc":
        """Every input bit of every non-memory core must have one driver.

        The check runs once per structural state: :meth:`add_core`,
        :meth:`connect` and :func:`repro.exec.invalidate_plan_cache`
        make the next call check again.
        """
        if self._validated:
            return self
        for core in self.testable_cores():
            for port in core.circuit.inputs:
                covered = 0
                seen_bits = 0
                for net in self.drivers_of(core.name, port.name):
                    mask = ((1 << net.dest.width) - 1) << net.dest.lo
                    if seen_bits & mask:
                        raise SocError(f"multiple drivers on {core.name}.{port.name}")
                    seen_bits |= mask
                    covered += net.dest.width
                if covered != port.width:
                    raise SocError(
                        f"input {core.name}.{port.name} has {covered}/{port.width} bits driven"
                    )
        self._validated = True
        return self

    def total_functional_area(self) -> int:
        """Sum of elaborated core areas (cells), cached per core."""
        from repro.elaborate import elaborate

        total = 0
        for core in self.cores.values():
            if core.is_memory:
                continue
            cached = getattr(core, "_area_cache", None)
            if cached is None:
                cached = elaborate(core.circuit).netlist.area()
                core._area_cache = cached  # type: ignore[attr-defined]
            total += cached
        return total
