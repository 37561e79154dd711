"""A small fluent DSL for constructing RTL circuits.

Example -- a two-stage pipeline with a bypass mux::

    b = CircuitBuilder("pipe")
    din = b.input("DIN", 8)
    r1 = b.register("R1", 8)
    r2 = b.register("R2", 8)
    sel = b.input("SEL", 1)
    b.drive(r1, din)
    b.drive(r2, b.mux("M0", [r1, din], select=sel))
    b.output("DOUT", r2)
    circuit = b.build()

Builder methods return :class:`~repro.rtl.types.Slice` handles covering
the full component width, so they compose directly into expressions via
``handle.sub(lo, width)`` and :func:`~repro.rtl.types.concat`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import NetlistError
from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Constant, Input, Mux, Operator, Output, Register
from repro.rtl.types import Expr, OpKind, Slice, expr_width
from repro.rtl.validate import validate_circuit

ExprLike = Union[Expr, Slice]


class CircuitBuilder:
    """Accumulates components and produces a validated :class:`RTLCircuit`."""

    def __init__(self, name: str) -> None:
        self._circuit = RTLCircuit(name)

    # ------------------------------------------------------------------
    # component factories (each returns a full-width Slice handle)
    # ------------------------------------------------------------------
    def input(self, name: str, width: int) -> Slice:
        self._circuit.add(Input(name, width))
        return Slice(name, 0, width)

    def output(self, name: str, driver: Optional[ExprLike] = None, width: Optional[int] = None) -> Slice:
        if driver is None and width is None:
            raise NetlistError(f"output {name!r} needs a driver or an explicit width")
        out_width = width if width is not None else expr_width(driver)  # type: ignore[arg-type]
        self._circuit.add(Output(name, out_width, driver=driver))
        return Slice(name, 0, out_width)

    def register(
        self,
        name: str,
        width: int,
        driver: Optional[ExprLike] = None,
        enable: Optional[ExprLike] = None,
    ) -> Slice:
        self._circuit.add(Register(name, width, driver=driver, enable=enable))
        return Slice(name, 0, width)

    def mux(self, name: str, inputs: Sequence[ExprLike], select: ExprLike, width: Optional[int] = None) -> Slice:
        if not inputs:
            raise NetlistError(f"mux {name!r} has no data inputs")
        mux_width = width if width is not None else expr_width(inputs[0])
        self._circuit.add(Mux(name, mux_width, inputs=list(inputs), select=select))
        return Slice(name, 0, mux_width)

    def op(self, name: str, kind: OpKind, operands: Sequence[ExprLike], width: Optional[int] = None) -> Slice:
        if not operands:
            raise NetlistError(f"operator {name!r} has no operands")
        if width is None:
            if kind in (OpKind.EQ, OpKind.LT, OpKind.REDUCE_OR, OpKind.REDUCE_AND):
                width = 1
            elif kind is OpKind.DECODE:
                width = 1 << expr_width(operands[0])
            else:
                width = expr_width(operands[0])
        self._circuit.add(Operator(name, width, op=kind, operands=list(operands)))
        return Slice(name, 0, width)

    def const(self, name: str, width: int, value: int) -> Slice:
        self._circuit.add(Constant(name, width, value=value))
        return Slice(name, 0, width)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def drive(self, target: Slice, driver: ExprLike, enable: Optional[ExprLike] = None) -> None:
        """Set the driver (and optionally enable) of a register or output.

        ``target`` must be a full-width handle returned by
        :meth:`register` or :meth:`output`.
        """
        component = self._circuit.get(target.comp)
        if target.lo != 0 or target.width != component.width:
            raise NetlistError(
                f"drive() target must be the full component, got slice {target} of {component.name!r}; "
                "use a Concat driver for split registers"
            )
        if isinstance(component, (Register, Output)):
            if expr_width(driver) != component.width:
                raise NetlistError(
                    f"driver width {expr_width(driver)} != width {component.width} of {component.name!r}"
                )
            component.driver = driver
            if enable is not None:
                if not isinstance(component, Register):
                    raise NetlistError(f"enable only applies to registers, not {component.name!r}")
                component.enable = enable
        else:
            raise NetlistError(f"cannot drive component {component.name!r} of kind {component.kind}")

    # ------------------------------------------------------------------
    def circuit(self) -> RTLCircuit:
        """The circuit under construction (not yet validated)."""
        return self._circuit

    def build(self) -> RTLCircuit:
        """Validate and return the finished circuit."""
        validate_circuit(self._circuit)
        return self._circuit
