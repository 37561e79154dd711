"""Realize a transparency path as actual test-mode hardware.

:func:`apply_transparency_path` takes a justification path and returns a
modified circuit with

* a 1-bit ``trans_mode`` input,
* select-forcing muxes (``tsel_``) steering every existing mux the path
  uses to the required leg,
* load-forcing / freeze logic (``freeze_``) on the path's registers --
  registers on the path load every cycle in test mode except while
  their ``hold_<reg>`` input freezes them to balance unequal sub-paths,
* synthesized transparency muxes (``tmux_``) for the version's added
  arcs that the path uses.

:func:`freeze_schedule` derives, from the path tree, the exact cycles
each early-arriving register must hold -- the waveform the paper's test
controller FSM would drive.  Together with the simulator this lets the
test suite *prove* transparency at gate level: apply a value at the
terminal input, clock ``latency`` cycles with the schedule, and the
value appears at the target output slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import TransparencyError
from repro.rtl.circuit import RTLCircuit
from repro.rtl.components import Constant, Input, Mux, Operator, Output, Register
from repro.rtl.types import ComponentKind, OpKind, Slice, concat, slice_expr
from repro.rtl.validate import validate_circuit
from repro.transparency.search import PathNode, TransparencyPath

TRANS_MODE = "trans_mode"


@dataclass
class TransparencyApplication:
    """A circuit with one transparency path wired for test mode."""

    circuit: RTLCircuit
    path: TransparencyPath
    mode_input: str
    #: register -> its hold input name (only registers that ever freeze)
    hold_inputs: Dict[str, str] = field(default_factory=dict)
    #: register -> set of cycles (step indices) during which it must hold
    schedule: Dict[str, Set[int]] = field(default_factory=dict)


def freeze_schedule(path: TransparencyPath) -> Dict[str, Set[int]]:
    """Hold cycles per register for one justification path.

    Cycle ``t`` is the t-th :meth:`SequentialSimulator.step` call; a
    register listed for cycle ``t`` must not capture at the end of that
    step.  Terminals are assumed valid (and held) from cycle 0 on.
    """
    holds: Dict[str, Set[int]] = {}

    def load_time(node: PathNode) -> int:
        if not node.branches:
            return 0  # terminal input: valid from the start
        arrivals = []
        for arc, sub in node.branches:
            arrivals.append((arc, sub, load_time(sub) + arc.latency))
        latest = max(t for _, _, t in arrivals)
        for arc, sub, t in arrivals:
            if t < latest and sub.branches:  # an early *register* branch
                register = sub.piece.comp
                # valid from t - arc.latency == load_time(sub); must survive
                # until the parent captures at the end of cycle latest-1
                start = t - arc.latency
                for cycle in range(start, latest - arc.latency):
                    holds.setdefault(register, set()).add(cycle)
        return latest

    load_time(path.tree)
    return holds


def apply_transparency_path(
    circuit: RTLCircuit, path: TransparencyPath
) -> TransparencyApplication:
    """Wire ``path`` into a copy of ``circuit`` as test-mode hardware.

    Both directions apply: a justify path additionally gets freeze
    holds (terminal inputs settle at different times), while a
    propagate path needs none -- its single root word enters once and
    every register on the way loads every cycle.
    """
    if path.direction not in ("justify", "propagate"):
        raise TransparencyError(f"cannot apply a path with direction {path.direction!r}")
    modified = circuit.copy(f"{circuit.name}_trans")
    modified.add(Input(TRANS_MODE, 1))
    mode = Slice(TRANS_MODE, 0, 1)

    # ------------------------------------------------------------------
    # 1. collect per-mux forced indices and the registers on the path
    # ------------------------------------------------------------------
    forced: Dict[str, int] = {}
    path_registers: Set[str] = set()
    added_arcs: List = []

    def visit(node: PathNode) -> None:
        for arc, sub in node.branches:
            for mux_name, index in arc.mux_path:
                if forced.get(mux_name, index) != index:
                    raise TransparencyError(
                        f"path forces mux {mux_name!r} to two different legs"
                    )
                forced[mux_name] = index
            dest_kind = modified.get(arc.dest.comp).kind
            if dest_kind is ComponentKind.REGISTER:
                path_registers.add(arc.dest.comp)
            if getattr(arc, "added", False):
                added_arcs.append(arc)
            visit(sub)

    visit(path.tree)

    # ------------------------------------------------------------------
    # 2. select forcing on existing muxes
    # ------------------------------------------------------------------
    for mux_name, index in sorted(forced.items()):
        mux: Mux = modified.get(mux_name)  # type: ignore[assignment]
        select_width = mux.select_width
        const = Constant(f"tsel_k_{mux_name}", select_width, value=index)
        modified.add(const)
        override = Mux(
            f"tsel_{mux_name}",
            select_width,
            inputs=[slice_expr(mux.select, 0, select_width), Slice(const.name, 0, select_width)],
            select=mode,
        )
        modified.add(override)
        mux.select = Slice(override.name, 0, select_width)

    # ------------------------------------------------------------------
    # 3. synthesized transparency muxes for added arcs
    # ------------------------------------------------------------------
    for arc in added_arcs:
        dest = modified.get(arc.dest.comp)
        if isinstance(dest, (Register, Output)):
            pieces = []
            cursor = 0
            if arc.dest.lo > 0:
                pieces.append(slice_expr(dest.driver, 0, arc.dest.lo))
            pieces.append(arc.source)
            cursor = arc.dest.lo + arc.dest.width
            if cursor < dest.width:
                pieces.append(slice_expr(dest.driver, cursor, dest.width - cursor))
            bypass = concat(*pieces)
            override = Mux(
                f"tmux_{arc.dest.comp}_{arc.dest.lo}",
                dest.width,
                inputs=[dest.driver, bypass],
                select=mode,
            )
            modified.add(override)
            dest.driver = Slice(override.name, 0, dest.width)
        else:
            raise TransparencyError(f"added arc lands on unsupported {arc.dest.comp!r}")

    # ------------------------------------------------------------------
    # 4. load forcing + freeze holds on path registers
    # ------------------------------------------------------------------
    schedule = freeze_schedule(path) if path.direction == "justify" else {}
    hold_inputs: Dict[str, str] = {}
    for register_name in sorted(path_registers):
        register: Register = modified.get(register_name)  # type: ignore[assignment]
        if register_name in schedule:
            hold_name = f"hold_{register_name}"
            modified.add(Input(hold_name, 1))
            hold_inputs[register_name] = hold_name
            load_when = Operator(
                f"freeze_load_{register_name}", 1, op=OpKind.NOT, operands=[Slice(hold_name, 0, 1)]
            )
            modified.add(load_when)
            test_enable = Slice(load_when.name, 0, 1)
        else:
            const_one = Constant(f"freeze_one_{register_name}", 1, value=1)
            modified.add(const_one)
            test_enable = Slice(const_one.name, 0, 1)
        if register.enable is not None:
            override = Mux(
                f"freeze_{register_name}",
                1,
                inputs=[register.enable, test_enable],
                select=mode,
            )
            modified.add(override)
            register.enable = Slice(override.name, 0, 1)
        elif register_name in schedule:
            # unconditionally-loading register gains a test-mode enable
            override = Mux(
                f"freeze_{register_name}",
                1,
                inputs=[Slice(f"freeze_one_{register_name}_b", 0, 1), test_enable],
                select=mode,
            )
            base_one = Constant(f"freeze_one_{register_name}_b", 1, value=1)
            modified.add(base_one)
            modified.add(override)
            register.enable = Slice(override.name, 0, 1)
        # registers without enable and without holds load every cycle anyway

    validate_circuit(modified)
    return TransparencyApplication(
        circuit=modified,
        path=path,
        mode_input=TRANS_MODE,
        hold_inputs=hold_inputs,
        schedule=schedule,
    )
