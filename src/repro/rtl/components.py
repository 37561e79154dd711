"""Component classes stored in an :class:`~repro.rtl.circuit.RTLCircuit`.

Each component owns a *name* (unique within the circuit) and produces an
output word of a fixed *width*.  Drivers are :data:`~repro.rtl.types.Expr`
values referring to other components' outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.rtl.types import ComponentKind, Expr, OpKind


@dataclass
class Component:
    """Base class: a named producer of a ``width``-bit output word."""

    name: str
    width: int

    kind: ComponentKind = field(init=False)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"component {self.name!r} must have positive width")


@dataclass
class Input(Component):
    """A primary input port of the circuit (or core)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = ComponentKind.INPUT


@dataclass
class Output(Component):
    """A primary output port; ``driver`` supplies its bits combinationally."""

    driver: Optional[Expr] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = ComponentKind.OUTPUT


@dataclass
class Register(Component):
    """An edge-triggered register.

    ``driver`` feeds the D input; if ``enable`` is given (a 1-bit
    expression) the register only loads when it is 1, otherwise it loads
    every cycle.
    """

    driver: Optional[Expr] = None
    enable: Optional[Expr] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = ComponentKind.REGISTER


@dataclass
class Mux(Component):
    """A word-level multiplexer with ``len(inputs)`` data inputs.

    ``select`` is an expression of width ``ceil(log2(len(inputs)))``
    (minimum 1).  Input 0 is selected when the select value is 0, and so
    on; select values beyond the input count resolve to the last input.
    """

    inputs: List[Expr] = field(default_factory=list)
    select: Optional[Expr] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = ComponentKind.MUX

    @property
    def select_width(self) -> int:
        count = max(len(self.inputs), 2)
        return (count - 1).bit_length()


@dataclass
class Operator(Component):
    """A word-level combinational operator (opaque for transparency)."""

    op: OpKind = OpKind.ADD
    operands: List[Expr] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = ComponentKind.OPERATOR


@dataclass
class Constant(Component):
    """A constant word."""

    value: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.kind = ComponentKind.CONSTANT
        if self.value < 0 or self.value >= (1 << self.width):
            raise ValueError(f"constant {self.name!r} value {self.value} exceeds width {self.width}")
