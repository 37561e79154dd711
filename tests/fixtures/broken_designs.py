"""Deliberately broken designs for exercising the lint rules.

Every fixture here violates exactly one design rule (plus whatever that
implies) and is built *without* running the construction-time
validators: circuits come from ``CircuitBuilder.circuit`` (the
unvalidated container) or are tampered with after a valid build, plans
are corrupted after construction.  None of these are registered with
the example-design registry -- ``repro lint SystemN`` never sees them.

Keep each builder minimal: the lint tests assert that the *named* rule
fires on its fixture, so an incidental second violation makes the test
ambiguous.
"""

from __future__ import annotations

import dataclasses

from repro.rtl import CircuitBuilder, OpKind, Slice
from repro.rtl.types import Concat
from repro.soc import Core, PortRef, Soc, plan_soc_test


# ----------------------------------------------------------------------
# circuit-scope fixtures (rtl.*)
# ----------------------------------------------------------------------
def comb_loop_circuit():
    """Two NOT gates feeding each other: rtl.comb-loop."""
    b = CircuitBuilder("combloop")
    din = b.input("DIN", 1)
    a = b.op("A", OpKind.NOT, [Slice("B", 0, 1)], width=1)
    b.op("B", OpKind.NOT, [a], width=1)
    b.output("O", din)
    return b.circuit()


def undriven_circuit():
    """A register that nothing drives: rtl.undriven."""
    b = CircuitBuilder("undriven")
    din = b.input("DIN", 4)
    b.register("R", 4)
    b.output("O", din)
    return b.circuit()


def width_mismatch_circuit():
    """An 8-bit register rewired to a 4-bit driver: rtl.width-mismatch."""
    b = CircuitBuilder("widths")
    din = b.input("DIN", 8)
    r = b.register("R", 8)
    b.drive(r, din)
    b.output("O", r)
    circuit = b.build()
    circuit.get("R").driver = Slice("DIN", 0, 4)
    return circuit


def unreachable_register_circuit():
    """A register fed only by itself, no reset: rtl.unreachable-reg.

    Structurally legal (the self-loop runs through a flip-flop), so this
    one survives ``build()`` -- the point of the warning rule.
    """
    b = CircuitBuilder("unreach")
    din = b.input("DIN", 4)
    r = b.register("R", 4)
    b.drive(r, r)
    b.output("O", din)
    return b.build()


# ----------------------------------------------------------------------
# SOC-scope fixtures (soc.*, trans.*)
# ----------------------------------------------------------------------
def _passthrough(name: str, width: int = 8, depth: int = 1):
    b = CircuitBuilder(name)
    previous = b.input("IN", width)
    for i in range(depth):
        reg = b.register(f"R{i}", width)
        b.drive(reg, previous)
        previous = reg
    b.output("OUT", previous)
    return b.build()


def _single_core_soc(name: str = "broken") -> Soc:
    soc = Soc(name)
    soc.add_core(Core.from_circuit(_passthrough("A"), test_vectors=4))
    soc.add_input("PIN", 8)
    soc.add_output("POUT", 8)
    soc.wire(None, "PIN", "A", "IN")
    soc.wire("A", "OUT", None, "POUT")
    return soc


def partially_driven_soc() -> Soc:
    """Core input with only half its bits wired: soc.input-drivers."""
    soc = Soc("halfwired")
    soc.add_core(Core.from_circuit(_passthrough("A"), test_vectors=4))
    soc.add_input("PIN", 8)
    soc.add_output("POUT", 8)
    soc.connect(PortRef(None, "PIN", 0, 4), PortRef("A", "IN", 0, 4))
    soc.wire("A", "OUT", None, "POUT")
    return soc


def doubly_driven_soc() -> Soc:
    """Two nets landing on the same input bits: soc.input-drivers."""
    soc = _single_core_soc("doubledriver")
    soc.connect(PortRef(None, "PIN", 0, 4), PortRef("A", "IN", 0, 4))
    return soc


def uncovered_input_soc() -> Soc:
    """A version whose input lost its propagate path: trans.input-propagation."""
    soc = _single_core_soc("uncovered")
    version = soc.cores["A"].versions[0]
    del version.propagate_paths["IN"]
    return soc


def unjustified_output_soc() -> Soc:
    """A version whose output slice lost its justify path: trans.output-justification."""
    soc = _single_core_soc("unjustified")
    version = soc.cores["A"].versions[0]
    key = sorted(version.justify_paths)[0]
    del version.justify_paths[key]
    return soc


def lying_latency_soc() -> Soc:
    """A propagate path claiming 0 cycles through a register: trans.latency-overrun."""
    soc = _single_core_soc("lyinglatency")
    version = soc.cores["A"].versions[0]
    path = version.propagate_paths["IN"]
    version.propagate_paths["IN"] = dataclasses.replace(path, latency=0)
    return soc


# ----------------------------------------------------------------------
# certifier fixtures (analysis.*)
# ----------------------------------------------------------------------
def narrowed_transparency_soc() -> Soc:
    """A core whose netlist diverged after version generation.

    The versions were generated while R0 loaded ``{INHI, INLO}``; the
    shipped circuit routes the upper nibble through an inverter instead,
    so the declared full-width justify/propagate paths claim 8 bits of
    transport where the hardware only carries 4.  The certifier refutes
    them with slice-level diagnostics (analysis.slice-provenance) and
    the differential replay observes the inverted nibble.
    """
    b = CircuitBuilder("A")
    lo = b.input("INLO", 4)
    hi = b.input("INHI", 4)
    inv = b.op("INV", OpKind.NOT, [hi], width=4)
    r = b.register("R0", 8)
    b.drive(r, Concat((lo, hi)))
    b.output("OUT", r)
    b.output("NOUT", inv)
    core = Core.from_circuit(b.build(), test_vectors=4)
    # tamper: the upper nibble now physically routes through the inverter
    core.circuit.get("R0").driver = Concat((Slice("INLO", 0, 4), Slice("INV", 0, 4)))

    soc = Soc("narrowed")
    soc.add_core(core)
    soc.add_input("PINL", 4)
    soc.add_input("PINH", 4)
    soc.add_output("POUT", 8)
    soc.add_output("PNOUT", 4)
    soc.wire(None, "PINL", "A", "INLO")
    soc.wire(None, "PINH", "A", "INHI")
    soc.wire("A", "OUT", None, "POUT")
    soc.wire("A", "NOUT", None, "PNOUT")
    return soc


def mux_conflict_soc() -> Soc:
    """A justify path that forces one mux onto both of its legs.

    Each of MX's legs is transparent on a different nibble (the other
    nibble is inverted), so justifying the full 8-bit output needs leg 0
    for the low word and leg 1 for the high word -- the same select in
    one cycle.  The generator emits that path anyway; the certifier's
    unit-propagation solver refutes it (analysis.mux-conflict) and
    ``apply_transparency_path`` refuses to realize the mode.  The second
    register stage keeps the output a single full-width justify key.
    """
    b = CircuitBuilder("A")
    a_in = b.input("AIN", 4)
    b_in = b.input("BIN", 4)
    sel = b.input("SEL", 1)
    na = b.op("NA", OpKind.NOT, [a_in], width=4)
    nb = b.op("NB", OpKind.NOT, [b_in], width=4)
    m = b.mux("MX", [Concat((a_in, na)), Concat((nb, b_in))], sel, width=8)
    r = b.register("R", 8)
    b.drive(r, m)
    r2 = b.register("R2", 8)
    b.drive(r2, r)
    b.output("OUT", r2)

    soc = Soc("muxconflict")
    soc.add_core(Core.from_circuit(b.build(), test_vectors=4))
    soc.add_input("PA", 4)
    soc.add_input("PB", 4)
    soc.add_input("PSEL", 1)
    soc.add_output("POUT", 8)
    soc.wire(None, "PA", "A", "AIN")
    soc.wire(None, "PB", "A", "BIN")
    soc.wire(None, "PSEL", "A", "SEL")
    soc.wire("A", "OUT", None, "POUT")
    return soc


def shared_select_soc() -> Soc:
    """Two muxes on one select net, demanded opposite ways: advisory only.

    M0 is transparent on leg 0 and M1 on leg 1, both selected by SEL.
    The full-width justify path needs M0=0 and M1=1 simultaneously --
    unrealizable on the functional select net, but fine in test mode
    because ``apply_transparency_path`` gives each mux its own
    ``tsel_*`` override.  The certifier reports
    analysis.select-sharing at INFO and still proves the path.
    """
    b = CircuitBuilder("A")
    a_in = b.input("AIN", 4)
    b_in = b.input("BIN", 4)
    sel = b.input("SEL", 1)
    na = b.op("NA", OpKind.NOT, [a_in], width=4)
    nb = b.op("NB", OpKind.NOT, [b_in], width=4)
    m0 = b.mux("M0", [a_in, na], sel, width=4)
    m1 = b.mux("M1", [nb, b_in], sel, width=4)
    r = b.register("R0", 8)
    b.drive(r, Concat((m0, m1)))
    r2 = b.register("R1", 8)
    b.drive(r2, r)
    b.output("OUT", r2)

    soc = Soc("sharedselect")
    soc.add_core(Core.from_circuit(b.build(), test_vectors=4))
    soc.add_input("PA", 4)
    soc.add_input("PB", 4)
    soc.add_input("PSEL", 1)
    soc.add_output("POUT", 8)
    soc.wire(None, "PA", "A", "AIN")
    soc.wire(None, "PB", "A", "BIN")
    soc.wire(None, "PSEL", "A", "SEL")
    soc.wire("A", "OUT", None, "POUT")
    return soc


# ----------------------------------------------------------------------
# plan-scope fixtures (plan.*)
# ----------------------------------------------------------------------
def _chain_soc(name: str = "chain") -> Soc:
    """PI -> A(depth 2) -> B(depth 1) -> PO; B's test borrows A's transparency."""
    soc = Soc(name)
    soc.add_core(Core.from_circuit(_passthrough("A", depth=2), test_vectors=4))
    soc.add_core(Core.from_circuit(_passthrough("B", depth=1), test_vectors=4))
    soc.add_input("PIN", 8)
    soc.add_output("POUT", 8)
    soc.wire(None, "PIN", "A", "IN")
    soc.wire("A", "OUT", "B", "IN")
    soc.wire("B", "OUT", None, "POUT")
    return soc


def tampered_cadence_plan():
    """A core plan's cadence squeezed below its reservations: plan.reservation-overlap."""
    plan = plan_soc_test(_chain_soc("squeezedcadence"))
    victim = max(plan.core_plans.values(), key=lambda cp: cp.cadence)
    victim.cadence = 1 if victim.cadence > 1 else 0
    return plan


def mux_unrecorded_plan():
    """A delivery claiming a test-mux fallback nobody recorded: plan.mux-unrecorded."""
    plan = plan_soc_test(_chain_soc("phantommux"))
    delivery = plan.core_plans["B"].deliveries[0]
    delivery.via_test_mux = True
    return plan


def tat_inconsistent_plan():
    """Flush and scan-step counts that contradict the core: plan.tat-consistency."""
    plan = plan_soc_test(_chain_soc("cookedtat"))
    core_plan = plan.core_plans["A"]
    core_plan.scan_steps += 7
    core_plan.flush += 3
    return plan


def bad_selection_plan():
    """A selection naming a version the core does not have: plan.selection-range."""
    plan = plan_soc_test(_chain_soc("badselection"))
    plan.selection["A"] = 99
    return plan
