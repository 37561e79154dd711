"""Authoring a core and inspecting its transparency structure.

Shows the machinery under the hood: the register connectivity graph
with its C-split/O-split nodes (paper Figure 7), the justification tree
for a split output (the balanced-freeze mechanism of Figure 4b), and the
chip-level planner's routes to the core through the synthesized versions
of its neighbours (Figure 9).

Run:  python examples/custom_core_transparency.py
"""

from repro.dft import insert_hscan
from repro.rtl import CircuitBuilder, OpKind, Slice
from repro.rtl.types import Concat
from repro.soc import Core, Soc, plan_soc_test
from repro.transparency import RCG, TransparencySearch, generate_versions


def build_dsp_core():
    """A filter-like core with a C-split coefficient register."""
    b = CircuitBuilder("FILTER")
    din = b.input("SAMPLE", 8)
    ctl = b.input("CTL", 1)
    head = b.register("HEAD", 8)
    tail = b.register("TAIL", 4)  # low half of COEF comes through TAIL
    coef = b.register("COEF", 8)  # C-split: [3:0] <- TAIL, [7:4] <- HEAD
    out = b.register("OUTREG", 8)
    b.drive(head, din)
    b.drive(tail, head.sub(0, 4))
    b.drive(coef, Concat((Slice("TAIL", 0, 4), Slice("HEAD", 4, 4))))
    product = b.op("MAC", OpKind.ADD, [coef, head])
    b.drive(out, b.mux("OUT_MUX", [product, coef], select=ctl))
    b.output("RESULT", out)
    return b.build()


def main():
    circuit = build_dsp_core()
    plan = insert_hscan(circuit)
    rcg = RCG.from_circuit(circuit, plan)

    print("RCG nodes (paper Figure 7 style):")
    for node in rcg.nodes.values():
        tags = []
        if rcg.is_c_split(node.name):
            tags.append("C-split")
        if rcg.is_o_split(node.name):
            tags.append("O-split")
        print(f"  {node.name:8s} {node.kind:9s} width={node.width:2d} {' '.join(tags)}")
    print("\nRCG edges (# marks HSCAN edges):")
    for arc in rcg.arcs:
        print(f"  {arc}")

    search = TransparencySearch(rcg)
    path = search.justify(Slice("RESULT", 0, 8))
    assert path is not None
    print(f"\njustify RESULT: latency {path.latency}, "
          f"terminals {[str(t) for t in path.terminals]}")
    for register, cycles in path.freezes:
        print(f"  freeze {register} for {cycles} cycle(s) to balance sub-paths")

    versions = generate_versions(circuit, plan)
    print("\nversions:")
    for version in versions:
        print(f"  {version.name}: justify RESULT = "
              f"{version.justify_latency('RESULT', 0, 8)} cycles, "
              f"{version.extra_cells} cells")

    # ---------------- embed it and plan its chip-level test ----------------
    soc = Soc("demo")
    soc.add_core(Core.from_circuit(circuit, test_vectors=20))
    front = Core.from_circuit(_front_end(), test_vectors=10)
    soc.add_core(front)
    soc.add_input("PIN", 8)
    soc.add_input("PCTL", 1)
    soc.add_output("POUT", 8)
    soc.wire(None, "PIN", "FRONT", "IN")
    soc.wire("FRONT", "OUT", "FILTER", "SAMPLE")
    soc.wire(None, "PCTL", "FILTER", "CTL")
    soc.wire("FILTER", "RESULT", None, "POUT")

    filter_plan = plan_soc_test(soc).core_plans["FILTER"]
    print(f"\nFILTER's planned deliveries (cadence {filter_plan.cadence}):")
    for delivery in filter_plan.deliveries:
        route = "test mux" if delivery.via_test_mux else "chip pins"
        if delivery.usages:
            route = ", ".join(
                f"{core} {kind} {key}" for (core, kind, key) in sorted(delivery.usages)
            )
        print(f"  {delivery.port}: latency {delivery.latency} via {route}")


def _front_end():
    b = CircuitBuilder("FRONT")
    din = b.input("IN", 8)
    reg = b.register("R", 8)
    b.drive(reg, din)
    b.output("OUT", reg)
    return b.build()


if __name__ == "__main__":
    main()
