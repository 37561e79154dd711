"""SOC-test-plan design rules: reservations, mux bookkeeping, TAT math.

A :class:`~repro.soc.plan.SocTestPlan` encodes the paper's Section 5
solution; these rules re-derive its internal invariants from first
principles so a hand-edited, cached, or corrupted plan is rejected
before any simulation spends cycles on it:

* per-vector reservation windows on shared transparency resources must
  fit inside the declared cadence (the paper's edge-reservation rule);
* every delivery/observation that fell back to a system-level test mux
  must have that mux recorded in the plan (it is real chip area);
* scan-step and flush accounting must match the core's HSCAN data and
  the observation latencies;
* the version selection must name real versions of real cores.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.lint.diagnostics import Severity, location
from repro.lint.registry import Finding, LintContext, Rule


def _version_of(plan, core_name: str):
    core = plan.soc.cores.get(core_name)
    if core is None:
        return None
    index = plan.selection.get(core_name, 0)
    if not 0 <= index < core.version_count:
        return None
    return core.version(index)


def check_infeasible(ctx: LintContext) -> Iterator[Finding]:
    """plan.infeasible: the plan layer could be built at all."""
    if ctx.plan is None and ctx.plan_error is not None:
        yield (
            location(ctx.system, "plan"),
            f"test plan cannot be built: {ctx.plan_error}",
            "fix the netlist/transparency errors above, or allow test muxes",
        )


def check_reservation_windows(ctx: LintContext) -> Iterator[Finding]:
    """plan.reservation-overlap: cadence covers every resource's busy time.

    Each transparency transfer occupies its RCG arcs and terminal ports
    for its full latency, per use, per scan step.  If a core's declared
    per-vector cadence is shorter than the busiest shared resource's
    total reservation (or than the longest path), consecutive windows
    collide and vectors would overwrite each other in flight.
    """
    plan = ctx.plan
    if plan is None:
        return
    for core_name, core_plan in sorted(plan.core_plans.items()):
        longest = 1
        for delivery in core_plan.deliveries:
            longest = max(longest, delivery.latency)
        for observation in core_plan.observations:
            longest = max(longest, observation.latency)
        busy: Counter = Counter()
        for (conduit, kind, key), count in core_plan.all_usages().items():
            version = _version_of(plan, conduit)
            if version is None:
                continue  # plan.selection-range reports this
            if kind == "justify":
                path = version.justify_paths.get(tuple(key))
            else:
                path = version.propagate_paths.get(key)
            if path is None:
                continue
            for resource in path.arcs_used:
                busy[(conduit, resource)] += count * path.latency
            for port in path.terminal_ports:
                busy[(conduit, "port", port)] += count * path.latency
        where = location(ctx.system, ("core", core_name))
        if core_plan.cadence < longest:
            yield (
                where,
                f"cadence {core_plan.cadence} is shorter than the longest "
                f"delivery/observation path ({longest} cycles)",
                "cadence must be max(longest path, busiest resource)",
            )
        if busy:
            resource, total = max(busy.items(), key=lambda kv: (kv[1], repr(kv[0])))
            if core_plan.cadence < total:
                yield (
                    where,
                    f"cadence {core_plan.cadence} cannot hold the "
                    f"{total}-cycle reservation on shared resource "
                    f"{resource[0]}:{resource[1]}",
                    "reservation windows on a shared CCG edge must not overlap",
                )


def check_mux_bookkeeping(ctx: LintContext) -> Iterator[Finding]:
    """plan.mux-unrecorded: every test-mux fallback is a recorded TestMux."""
    plan = ctx.plan
    if plan is None:
        return
    input_muxes = {(m.core, m.port) for m in plan.test_muxes if m.kind == "input"}
    output_muxes = {
        (m.core, m.port, m.lo, m.width) for m in plan.test_muxes if m.kind == "output"
    }
    for core_name, core_plan in sorted(plan.core_plans.items()):
        for delivery in core_plan.deliveries:
            if delivery.via_test_mux and (core_name, delivery.port) not in input_muxes:
                yield (
                    location(ctx.system, ("core", core_name), ("port", delivery.port)),
                    f"delivery to {core_name}.{delivery.port} claims a test-mux "
                    f"fallback but no input test mux is recorded",
                    "the mux is real chip area; record it or re-plan",
                )
        for observation in core_plan.observations:
            key = (core_name, observation.port, observation.lo, observation.width)
            if observation.via_test_mux and key not in output_muxes:
                yield (
                    location(
                        ctx.system, ("core", core_name),
                        ("port", f"{observation.port}[{observation.lo}+{observation.width}]"),
                    ),
                    f"observation of {core_name}.{observation.port}"
                    f"[{observation.lo}+{observation.width}] claims a test-mux "
                    f"fallback but no output test mux is recorded",
                    "the mux is real chip area; record it or re-plan",
                )


def check_tat_accounting(ctx: LintContext) -> Iterator[Finding]:
    """plan.tat-consistency: scan steps and flush match their sources.

    ``scan_steps`` must equal the core's HSCAN vector count and
    ``flush`` must equal (depth-1) + the slowest observation latency --
    the Section 3 formula the total TAT is built from.
    """
    plan = ctx.plan
    if plan is None:
        return
    for core_name, core_plan in sorted(plan.core_plans.items()):
        core = plan.soc.cores.get(core_name)
        if core is None:
            continue
        where = location(ctx.system, ("core", core_name))
        if core_plan.scan_steps != core.hscan_vectors:
            yield (
                where,
                f"plan records {core_plan.scan_steps} scan steps but the "
                f"core's HSCAN test set needs {core.hscan_vectors}",
                "scan_steps = vectors x (depth+1); re-derive from the core",
            )
        expected_flush = max(0, core.scan_depth - 1) + max(
            (o.latency for o in core_plan.observations), default=0
        )
        if core_plan.flush != expected_flush:
            yield (
                where,
                f"plan records flush {core_plan.flush} but depth and "
                f"observation latencies give {expected_flush}",
                "flush = (depth-1) + slowest observation latency",
            )


def check_selection(ctx: LintContext) -> Iterator[Finding]:
    """plan.selection-range: the version selection names real versions."""
    plan = ctx.plan
    if plan is None:
        return
    testable = {core.name for core in plan.soc.testable_cores()}
    for core_name, index in sorted(plan.selection.items()):
        where = location(ctx.system, ("core", core_name))
        core = plan.soc.cores.get(core_name)
        if core is None or core_name not in testable:
            yield (
                where,
                f"selection names {core_name!r}, which is not a testable core",
                "drop the entry (memory cores are BIST-tested)",
            )
            continue
        if not 0 <= index < core.version_count:
            yield (
                where,
                f"selection asks for version {index + 1} of {core_name}, "
                f"which has versions 1..{core.version_count}",
                "pick an existing version index",
            )
    for name in sorted(testable - set(plan.selection)):
        yield (
            location(ctx.system, ("core", name)),
            f"testable core {name!r} is missing from the version selection",
            "every testable core needs a selected version (default 0)",
        )


def check_mux_usage_note(ctx: LintContext) -> Iterator[Finding]:
    """plan.mux-usage: advisory note for every test-mux fallback taken.

    Test muxes are the paper's last resort ("if there is no path
    possible, we add a system-level test multiplexer"); each one costs
    pins and area, so the lint surfaces them for review.
    """
    plan = ctx.plan
    if plan is None:
        return
    for mux in plan.test_muxes:
        yield (
            location(ctx.system, ("core", mux.core), ("port", mux.port)),
            f"test-mux fallback in use: {mux} ({mux.cost} cells)",
            "a higher transparency version upstream may remove the need",
        )


RULES = (
    Rule("plan.infeasible", "plan", Severity.ERROR,
         "the SOC test plan can be constructed", check_infeasible),
    Rule("plan.reservation-overlap", "plan", Severity.ERROR,
         "reservation windows fit the declared cadence", check_reservation_windows),
    Rule("plan.mux-unrecorded", "plan", Severity.ERROR,
         "test-mux fallbacks are recorded in the plan", check_mux_bookkeeping),
    Rule("plan.tat-consistency", "plan", Severity.ERROR,
         "TAT accounting is internally consistent", check_tat_accounting),
    Rule("plan.selection-range", "plan", Severity.ERROR,
         "the version selection names real versions", check_selection),
    Rule("plan.mux-usage", "plan", Severity.INFO,
         "advisory: test-mux fallbacks in use", check_mux_usage_note),
)
