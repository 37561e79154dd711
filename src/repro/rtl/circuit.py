"""The RTL circuit container and its structural queries."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import NetlistError
from repro.rtl.components import (
    Component,
    Constant,
    Input,
    Mux,
    Operator,
    Output,
    Register,
)
from repro.rtl.types import ComponentKind, Expr, expr_parts


class RTLCircuit:
    """A named collection of RTL components wired by driver expressions.

    The circuit is a flat netlist: component names are unique and driver
    expressions refer to components by name.  Use
    :class:`~repro.rtl.builder.CircuitBuilder` to construct circuits
    conveniently and :func:`~repro.rtl.validate.validate_circuit` to check
    structural sanity.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._components: Dict[str, Component] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Add ``component``; raises :class:`NetlistError` on name clash."""
        if component.name in self._components:
            raise NetlistError(f"duplicate component name {component.name!r} in {self.name!r}")
        self._components[component.name] = component
        return component

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._components

    def get(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise NetlistError(f"no component named {name!r} in circuit {self.name!r}") from None

    def components(self) -> Iterator[Component]:
        return iter(self._components.values())

    def _of_kind(self, kind: ComponentKind) -> List[Component]:
        return [c for c in self._components.values() if c.kind is kind]

    @property
    def inputs(self) -> List[Input]:
        return self._of_kind(ComponentKind.INPUT)  # type: ignore[return-value]

    @property
    def outputs(self) -> List[Output]:
        return self._of_kind(ComponentKind.OUTPUT)  # type: ignore[return-value]

    @property
    def registers(self) -> List[Register]:
        return self._of_kind(ComponentKind.REGISTER)  # type: ignore[return-value]

    @property
    def constants(self) -> List[Constant]:
        return self._of_kind(ComponentKind.CONSTANT)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # structural statistics
    # ------------------------------------------------------------------
    def flip_flop_count(self) -> int:
        """Total number of flip-flops (sum of register widths)."""
        return sum(register.width for register in self.registers)

    def input_bit_count(self) -> int:
        """Total number of input port bits."""
        return sum(port.width for port in self.inputs)

    def output_bit_count(self) -> int:
        """Total number of output port bits."""
        return sum(port.width for port in self.outputs)

    def driver_exprs(self, component: Component) -> List[Expr]:
        """All driver expressions consumed by ``component``."""
        exprs: List[Expr] = []
        if isinstance(component, Output) and component.driver is not None:
            exprs.append(component.driver)
        elif isinstance(component, Register):
            if component.driver is not None:
                exprs.append(component.driver)
            if component.enable is not None:
                exprs.append(component.enable)
        elif isinstance(component, Mux):
            exprs.extend(component.inputs)
            if component.select is not None:
                exprs.append(component.select)
        elif isinstance(component, Operator):
            exprs.extend(component.operands)
        return exprs

    def fanin_names(self, component: Component) -> List[str]:
        """Names of components feeding ``component`` (with duplicates removed)."""
        seen: Dict[str, None] = {}
        for expr in self.driver_exprs(component):
            for part in expr_parts(expr):
                seen.setdefault(part.comp, None)
        return list(seen)

    def copy(self, new_name: Optional[str] = None) -> "RTLCircuit":
        """A deep copy with a fresh name; expressions are immutable and cheap."""
        import copy as _copy

        clone = RTLCircuit(new_name or self.name)
        for component in self._components.values():
            clone.add(_copy.deepcopy(component))
        return clone
