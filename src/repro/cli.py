"""Command-line interface: inspect cores, sweep systems, compare methods.

Usage (after ``pip install -e .``)::

    python -m repro cores                     # example cores + key stats
    python -m repro versions CPU              # a core's transparency ladder
    python -m repro plan System1              # test plan (min-area versions)
    python -m repro plan System1 -s CPU=3     # ...with the CPU at Version 3
    python -m repro sweep System1             # Figure 10's design space
    python -m repro compare System2           # SOCET vs FSCAN-BSCAN (Tables 2, 3)
    python -m repro schedule System3          # concurrent-session schedule
    python -m repro schedule System4 -p 80    # ...under a scan-power budget
    python -m repro lint System3              # static design-rule check
    python -m repro lint System3 --json       # ...as machine-readable JSON
    python -m repro certify System3 --json    # transparency proof certificate
    python -m repro certify System1 --replay  # ...checked against the simulator
    python -m repro profile System3           # per-stage time/counter breakdown
    python -m repro report System1 --quick    # ...the same run as a markdown report
    python -m repro explain System1 --quick   # ...its repro-attrib artifact (JSON)
    python -m repro regress --ledger L.jsonl  # exact counter gate

``compare``, ``profile``, ``report`` and ``explain`` run the one flow
driver once (:func:`repro.flow.profile.run_pipeline`, the paper's whole
evaluation of the system) and render its one ledger record; ``plan``,
``sweep``, ``schedule`` and ``export`` call the library directly.

Global observability flags work on every subcommand (before or after
it): ``--metrics`` appends the full instrument table, and ``-v``/``-vv``
turn on INFO/DEBUG logging from the library.

Exit codes: 0 success, 1 a runtime failure (or the subcommand's own
"found something" verdict), 2 a usage error -- bad arguments, an
unknown system, or a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro import __version__
from repro.errors import ReproError, UsageError
from repro.util import render_table


def _core_builders():
    from repro.designs import core_builders

    return core_builders()


def _build_system(name: str):
    from repro.designs import system_builders

    builders = system_builders()
    if name not in builders:
        raise UsageError(f"unknown system {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def _parse_selection(soc, spec: Optional[str]) -> Optional[Dict[str, int]]:
    if not spec:
        return None
    selection = {core.name: 0 for core in soc.testable_cores()}
    chosen = set()
    for item in spec.split(","):
        try:
            core_name, version = item.split("=")
            index = int(version) - 1
        except ValueError:
            raise UsageError(f"bad selection item {item!r}; expected CORE=N")
        if core_name not in selection:
            raise UsageError(f"unknown core {core_name!r}")
        if core_name in chosen:
            raise UsageError(f"core {core_name!r} selected twice")
        chosen.add(core_name)
        if not 0 <= index < soc.cores[core_name].version_count:
            raise UsageError(
                f"{core_name} has versions 1..{soc.cores[core_name].version_count}"
            )
        selection[core_name] = index
    return selection


def _write_output(path: str, text: str) -> None:
    """Write a command's ``-o`` file: UTF-8, newline-terminated.

    A path that cannot be opened or written (a directory, a full disk)
    is an exit-2 usage error naming it, never a traceback.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    except OSError as error:
        raise UsageError(f"cannot write {path!r}: {error.strerror or error}")


# ----------------------------------------------------------------------
def cmd_cores(_args) -> int:
    from repro.dft import insert_hscan
    from repro.elaborate import elaborate

    rows = []
    for name, builder in sorted(_core_builders().items()):
        circuit = builder()
        area = elaborate(circuit).netlist.area()
        if name in ("RAM", "ROM"):
            rows.append([name, circuit.flip_flop_count(), area, "-", "(memory: BIST)"])
            continue
        plan = insert_hscan(circuit)
        rows.append([name, circuit.flip_flop_count(), area, plan.depth,
                     f"{plan.extra_area} cells HSCAN"])
    print(render_table(["core", "FFs", "area(cells)", "scan depth", "DFT"], rows))
    return 0


def cmd_versions(args) -> int:
    from repro.flow import prepare_core

    builders = _core_builders()
    if args.core not in builders:
        raise UsageError(f"unknown core {args.core!r}; choose from {sorted(builders)}")
    prep = prepare_core(builders[args.core]())
    table = prep.version_latency_table()
    headers = list(table[0].keys())
    rows = [[row.get(h, "-") for h in headers] for row in table]
    print(render_table(headers, rows, title=f"{args.core}: transparency versions"))
    print(f"\nATPG: {prep.vector_count} vectors, "
          f"FC {prep.atpg.report.fault_coverage:.1f}%, "
          f"TEff {prep.atpg.report.test_efficiency:.1f}%")
    return 0


def cmd_plan(args) -> int:
    from repro.soc import plan_soc_test

    soc = _build_system(args.system)
    selection = _parse_selection(soc, args.select)
    plan = plan_soc_test(soc, selection)
    rows = []
    for name, core_plan in sorted(plan.core_plans.items()):
        rows.append([name, plan.selection[name] + 1, core_plan.cadence,
                     core_plan.scan_steps, core_plan.flush, core_plan.tat])
    print(render_table(
        ["core", "version", "cadence", "scan steps", "flush", "TAT"],
        rows,
        title=f"{soc.name}: SOCET test plan",
    ))
    print(f"\ntotal TAT: {plan.total_tat} cycles")
    print(f"chip-level DFT: {plan.chip_dft_cells} cells "
          f"(versions {plan.version_cells}, muxes {plan.test_mux_cells}, "
          f"controller {plan.controller_cells})")
    for mux in plan.test_muxes:
        print(f"  {mux}")
    return 0


def cmd_sweep(args) -> int:
    from repro.soc import design_space

    soc = _build_system(args.system)
    points = design_space(soc)
    rows = [[p.index, p.chip_cells, p.tat, p.label()] for p in points]
    print(render_table(["pt", "chip cells", "TAT", "versions"], rows,
                       title=f"{soc.name}: design space"))
    best = min(points, key=lambda p: (p.tat, p.chip_cells))
    print(f"\nmin-area: point 1 ({points[0].tat} cycles); "
          f"min-TAT: point {best.index} ({best.tat} cycles, {best.label()})")
    return 0


def cmd_compare(args) -> int:
    from repro.flow import (
        render_area_table,
        render_grading_budget,
        render_schedule_table,
        render_testability_table,
    )
    from repro.flow.profile import record_rows, run_pipeline

    record = run_pipeline(args.system)
    print(render_area_table(record_rows(record, "area")))
    print()
    print(render_schedule_table(record_rows(record, "schedules")))
    print()
    testability = record_rows(record, "testability")
    print(render_testability_table(testability))
    print(render_grading_budget(record["results"]["grading"]))
    tat = {row.configuration: row.tat for row in testability}
    ratio = tat["FSCAN-BSCAN"] / max(1, tat["SOCET Min. TApp."])
    print(f"\nFSCAN-BSCAN: {tat['FSCAN-BSCAN']} cycles; "
          f"SOCET: {tat['SOCET Min. Area']} (min area) / "
          f"{tat['SOCET Min. TApp.']} (min TApp) -- {ratio:.1f}x faster")
    return 0


def cmd_schedule(args) -> int:
    from repro.errors import ScheduleError
    from repro.flow import render_session_table
    from repro.schedule import render_gantt
    from repro.soc import plan_soc_test

    soc = _build_system(args.system)
    selection = _parse_selection(soc, args.select)
    plan = plan_soc_test(soc, selection)
    try:
        schedule = plan.schedule(
            algorithm=args.algorithm,
            power_budget=args.power_budget,
            include_bist=args.bist,
        )
    except ScheduleError as error:
        raise UsageError(f"scheduling failed: {error}")
    print(render_gantt(schedule))
    print()
    print(render_session_table(schedule))
    print(f"\nserial TAT: {schedule.serial_tat} cycles; "
          f"scheduled TAT: {schedule.makespan} cycles "
          f"({schedule.speedup:.2f}x, {len(schedule.sessions())} sessions)")
    if args.power_budget is not None:
        print(f"peak scan activity: {schedule.peak_activity} FFs "
              f"(budget {args.power_budget})")
    return 0


def cmd_export(args) -> int:
    import json

    from repro.flow.export import plan_to_dict
    from repro.soc import plan_soc_test

    soc = _build_system(args.system)
    selection = _parse_selection(soc, args.select)
    plan = plan_soc_test(soc, selection)
    payload = plan_to_dict(plan)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        _write_output(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_lint(args) -> int:
    from repro.lint import DEFAULT_REGISTRY, Severity, lint_soc

    if args.rules:
        rows = [
            [rule.rule_id, rule.scope, rule.severity.label, rule.title]
            for rule in DEFAULT_REGISTRY.rules()
        ]
        print(render_table(["rule", "scope", "severity", "checks that"], rows,
                           title="registered lint rules"))
        return 0
    if not args.system:
        raise UsageError("a SYSTEM argument is required (or use --rules)")
    try:
        fail_on = Severity.parse(args.fail_on)
    except ValueError as error:
        raise UsageError(str(error))
    registry = DEFAULT_REGISTRY.clone()
    for rule_id in args.disable or ():
        if rule_id not in registry:
            raise UsageError(
                f"unknown rule {rule_id!r}; run 'repro lint --rules' for the list"
            )
        registry.disable(rule_id)
    soc = _build_system(args.system)
    report = lint_soc(soc, registry=registry)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 1 if report.has_at_least(fail_on) else 0


def cmd_certify(args) -> int:
    from repro.analysis import certify_soc, path_location, replay_soc
    from repro.lint import Diagnostic, Severity

    try:
        fail_on = Severity.parse(args.fail_on)
    except ValueError as error:
        raise UsageError(str(error))
    soc = _build_system(args.system)
    selection = _parse_selection(soc, args.select)
    certificate = certify_soc(soc, selection=selection)
    diagnostics = certificate.diagnostics(escalate=True)
    if args.replay:
        replays = replay_soc(soc)
        certificate.replays = [result.to_dict() for result in replays]
        for result in replays:
            if not result.ok:
                diagnostics.append(Diagnostic(
                    rule="analysis.replay",
                    severity=Severity.ERROR,
                    location=path_location(soc.name, result.core,
                                           result.version_index, result.port),
                    message=(
                        f"proved {result.direction} path for {result.port} failed "
                        f"gate-level replay: {result.detail}"
                    ),
                    hint="a proof the simulator contradicts is a certifier bug; report it",
                ))
    text = certificate.to_json() if args.json else _render_certificate(
        certificate, diagnostics
    )
    if args.output:
        _write_output(args.output, text)
    else:
        print(text)
    return 1 if any(d.severity >= fail_on for d in diagnostics) else 0


def _render_certificate(certificate, diagnostics) -> str:
    summary = certificate.summary()
    rows = []
    for version in certificate.versions:
        refuted = [path for path in version.paths if not path.proved]
        selected = certificate.selection.get(version.core) == version.index
        rows.append([
            version.core,
            f"V{version.index + 1}" + ("*" if selected else ""),
            str(len(version.paths)),
            str(len(version.paths) - len(refuted)),
            str(len(refuted)),
            "proved" if version.proved else "REFUTED",
        ])
    lines = [render_table(
        ["core", "version", "paths", "proved", "refuted", "status"], rows,
        title=f"transparency certificate: {certificate.system} "
              f"({'certified' if certificate.certified else 'NOT CERTIFIED'})",
    )]
    routes = [
        f"  {route.status:<9} {route.kind:<11} {route.core}.{route.port} "
        f"(latency {route.latency})"
        for route in certificate.routes
    ]
    if routes:
        lines.append(f"access routes ({summary['routes']} total, "
                     f"{summary['routes_refuted']} refuted):")
        lines.extend(routes)
    if certificate.plan_error:
        lines.append(f"plan error: {certificate.plan_error}")
    if certificate.replays is not None:
        failed = sum(1 for replay in certificate.replays if not replay["ok"])
        lines.append(f"gate-level replay: {len(certificate.replays)} proved "
                     f"paths, {failed} mismatched")
    if diagnostics:
        lines.append("")
        lines.extend(str(d) for d in diagnostics)
    return "\n".join(lines)


def _read_ledger(path: str, label: str):
    """A user-supplied run ledger, checked with usage-grade errors.

    A missing path, or a file that is not a run ledger (wrong schema,
    not JSONL), is an exit-2 usage error naming the offending path --
    never a traceback: pointing ``--ledger``/``--baseline`` at the
    wrong file is an operator mistake, not a library failure.
    """
    from repro.errors import LedgerSchemaError
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(path)
    if not ledger.exists():
        raise UsageError(f"{label} {path!r} does not exist")
    try:
        ledger.records()
    except LedgerSchemaError as error:
        raise UsageError(f"{label} {path!r} is not a run ledger: {error}")
    return ledger


def _run_pipeline(args, top_k: int = 10):
    from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline

    return run_pipeline(
        args.system,
        seed=args.seed,
        max_faults=QUICK_MAX_FAULTS if args.quick else None,
        top_k=top_k,
    )


def _append_record(path: str, record: Dict) -> None:
    from repro.obs.ledger import RunLedger

    RunLedger(path).append(record)
    print(f"appended {record['bench']} record to {path}", file=sys.stderr)


def cmd_profile(args) -> int:
    from repro.flow.profile import render_profile

    record = _run_pipeline(args)
    print(render_profile(record))
    if args.ledger:
        _append_record(args.ledger, record)
    return 0


def cmd_regress(args) -> int:
    from repro.errors import RegressionError
    from repro.obs.regress import COUNTER_IGNORE, compare_ledgers

    candidate = _read_ledger(args.ledger, "ledger")
    baseline = _read_ledger(args.baseline, "baseline ledger") if args.baseline else None
    # empty prefixes would match every counter; drop them defensively
    ignore = tuple(p for p in (args.ignore_counter or ()) if p)
    try:
        report = compare_ledgers(
            candidate,
            baseline,
            benches=args.bench or None,
            ignore=ignore if args.ignore_counter else COUNTER_IGNORE,
        )
    except RegressionError as error:
        raise UsageError(str(error))
    print(report.to_json() if args.json else report.render())
    return report.exit_code()


def cmd_report(args) -> int:
    from repro.flow.profile import series_key
    from repro.obs.report import RunReport

    # resolve the baseline before the measured run: a bad --baseline
    # path should fail fast, not after minutes of pipeline work
    baseline_record = None
    if args.baseline:
        baseline_record = _read_ledger(args.baseline, "baseline ledger").latest(
            series_key(args.system, args.quick)
        )
    record = _run_pipeline(args, top_k=args.top)
    if args.ledger:
        _append_record(args.ledger, record)
    report = RunReport(
        title=f"{args.system} pipeline",
        record=record,
        baseline=baseline_record,
        top_k=args.top,
    )
    rendered = {
        "md": report.to_markdown,
        "html": report.to_html,
        "json": report.to_json,
    }[args.format]()
    if args.output:
        _write_output(args.output, rendered)
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(rendered)
    return 0


def cmd_explain(args) -> int:
    from repro.obs.attrib import artifact_json

    text = artifact_json(_run_pipeline(args, top_k=args.top)["attrib"])
    if args.output:
        _write_output(args.output, text)
        print(f"wrote attrib artifact to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
def _observability_parent() -> argparse.ArgumentParser:
    """The global flags, attachable before *or* after the subcommand.

    Defaults are ``SUPPRESS`` so a subparser never clobbers a value the
    main parser already set; ``main`` reads them with ``getattr``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--metrics", action="store_true", default=argparse.SUPPRESS,
        help="print the full metrics table after the command",
    )
    group.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="library logging: -v for INFO, -vv for DEBUG",
    )
    return parent


def _pipeline_parent() -> argparse.ArgumentParser:
    """The arguments of one pipeline run (``profile``/``report``/``explain``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("system")
    parent.add_argument("--seed", type=int, default=0, help="ATPG seed (default 0)")
    parent.add_argument(
        "--quick", action="store_true",
        help="cap per-core ATPG at a sampled fault subset (seconds, not minutes)",
    )
    return parent


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    obs = _observability_parent()
    pipeline = _pipeline_parent()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOCET core-based SOC test planning (DAC'98 reproduction)",
        parents=[obs],
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cores = sub.add_parser("cores", help="list the example cores", parents=[obs])
    p_cores.set_defaults(func=cmd_cores)

    p_versions = sub.add_parser(
        "versions", help="a core's transparency versions", parents=[obs]
    )
    p_versions.add_argument("core")
    p_versions.set_defaults(func=cmd_versions)

    p_plan = sub.add_parser("plan", help="plan an SOC test", parents=[obs])
    p_plan.add_argument("system")
    p_plan.add_argument("-s", "--select", help="version selection, e.g. CPU=3,DISPLAY=1")
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser(
        "sweep", help="sweep the version design space", parents=[obs]
    )
    p_sweep.add_argument("system")
    p_sweep.set_defaults(func=cmd_sweep)

    p_compare = sub.add_parser("compare", help="SOCET vs FSCAN-BSCAN", parents=[obs])
    p_compare.add_argument("system")
    p_compare.set_defaults(func=cmd_compare)

    p_schedule = sub.add_parser(
        "schedule", help="concurrent test-session schedule", parents=[obs]
    )
    p_schedule.add_argument("system")
    p_schedule.add_argument("-s", "--select", help="version selection, e.g. CPU=3")
    p_schedule.add_argument(
        "-a", "--algorithm", default="greedy", choices=["greedy", "sessions"],
        help="scheduler: greedy list (default) or session packer",
    )
    p_schedule.add_argument(
        "-p", "--power-budget", type=int,
        help="max concurrent scan activity (flip-flops)",
    )
    p_schedule.add_argument(
        "--bist", action="store_true",
        help="schedule memory-BIST sessions alongside the logic tests",
    )
    p_schedule.set_defaults(func=cmd_schedule)

    p_lint = sub.add_parser(
        "lint", help="static design-rule check of a system", parents=[obs],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean: no diagnostics at or above --fail-on\n"
            "  1  diagnostics at or above --fail-on were reported\n"
            "  2  usage error (unknown system, rule, or severity)\n"
        ),
    )
    p_lint.add_argument("system", nargs="?",
                        help="system to lint (e.g. System1)")
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics as a stable JSON document",
    )
    p_lint.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="lowest severity that causes exit 1: error (default), "
             "warning, or info",
    )
    p_lint.add_argument(
        "--disable", action="append", metavar="RULE",
        help="disable a rule by id (repeatable)",
    )
    p_lint.add_argument(
        "--rules", action="store_true",
        help="list the registered rules and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_certify = sub.add_parser(
        "certify", help="symbolic transparency certification of a system",
        parents=[obs],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean: no diagnostics at or above --fail-on\n"
            "  1  diagnostics at or above --fail-on were reported\n"
            "  2  usage error (unknown system, selection, or severity)\n"
        ),
    )
    p_certify.add_argument("system", help="system to certify (e.g. System1)")
    p_certify.add_argument(
        "-s", "--select", help="version selection, e.g. CPU=3 (default: V1s)",
    )
    p_certify.add_argument(
        "--json", action="store_true",
        help="emit the certificate as stable (byte-reproducible) JSON",
    )
    p_certify.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="lowest severity that causes exit 1: error (default), "
             "warning, or info",
    )
    p_certify.add_argument(
        "--replay", action="store_true",
        help="differentially replay every proved path on the gate-level "
             "simulator and embed the results",
    )
    p_certify.add_argument("-o", "--output", help="output file (default stdout)")
    p_certify.set_defaults(func=cmd_certify)

    p_export = sub.add_parser("export", help="export a test plan as JSON", parents=[obs])
    p_export.add_argument("system")
    p_export.add_argument("-s", "--select", help="version selection, e.g. CPU=3")
    p_export.add_argument("-o", "--output", help="output file (default stdout)")
    p_export.set_defaults(func=cmd_export)

    p_profile = sub.add_parser(
        "profile", help="run the full pipeline, print a per-stage breakdown",
        parents=[obs, pipeline],
    )
    p_profile.add_argument(
        "--ledger", metavar="FILE",
        help="append this run (samples + counters + attribution artifact + "
             "env fingerprint) to a JSONL run ledger",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_regress = sub.add_parser(
        "regress", help="exact counter gate over a run ledger",
        parents=[obs],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  pass: every gated counter matches the baseline record\n"
            "  1  drift: a deterministic counter changed, appeared, or\n"
            "     disappeared (correctness alarm)\n"
            "  2  usage error (missing or non-ledger file, unknown series)\n"
            "  3  nothing compared (no series had a baseline record)\n"
        ),
    )
    p_regress.add_argument(
        "bench", nargs="*",
        help="series to gate (default: every series in the ledger)",
    )
    p_regress.add_argument(
        "--ledger", default="benchmarks/results/ledger.jsonl", metavar="FILE",
        help="candidate ledger; each series' newest record is gated "
             "(default %(default)s)",
    )
    p_regress.add_argument(
        "--baseline", metavar="FILE",
        help="baseline ledger (e.g. the committed one): each series is "
             "gated against its newest record there; without it, against "
             "the record before the newest in --ledger",
    )
    p_regress.add_argument(
        "--ignore-counter", action="append", metavar="PREFIX",
        help="counter prefix excluded from the exact gate (repeatable; "
             "default: exec., attrib.)",
    )
    p_regress.add_argument(
        "--json", action="store_true",
        help="emit the verdicts as a stable JSON document",
    )
    p_regress.set_defaults(func=cmd_regress)

    p_report = sub.add_parser(
        "report", help="run the pipeline, emit a markdown/HTML/JSON run report",
        parents=[obs, pipeline],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Renders one pipeline run: the plan summary, the stage table (self\n"
            "times plus the run's unaccounted time), the top-k hotspots by self\n"
            "time, the search-effort attribution (hardest faults and optimizer\n"
            "convergence), and a counter diff against the baseline ledger's\n"
            "newest record of the same series.\n"
        ),
    )
    p_report.add_argument(
        "-f", "--format", default="md", choices=["md", "html", "json"],
        help="report format (default %(default)s)",
    )
    p_report.add_argument("-o", "--output", metavar="FILE",
                          help="output file (default stdout)")
    p_report.add_argument(
        "--ledger", metavar="FILE",
        help="also append this run's record to a JSONL run ledger",
    )
    p_report.add_argument(
        "--baseline", metavar="FILE",
        help="baseline ledger for the counter diff",
    )
    p_report.add_argument(
        "--top", type=_positive_int, default=10, metavar="K",
        help="hotspot sections and hard faults to show (default %(default)s)",
    )
    p_report.set_defaults(func=cmd_report)

    p_explain = sub.add_parser(
        "explain", help="run the pipeline, emit its search-effort artifact",
        parents=[obs, pipeline],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Writes the byte-stable 'repro-attrib' artifact of one pipeline\n"
            "run: the top-K hardest faults (PODEM effort ledger, reconciled\n"
            "exactly against the atpg.podem.* counters) and the optimizer's\n"
            "move trajectory.  Check it offline with 'python -m\n"
            "repro.obs.ledger FILE'; 'repro report' renders the same planes.\n"
        ),
    )
    p_explain.add_argument(
        "--top", type=_positive_int, default=10, metavar="K",
        help="hard faults to rank in the artifact (default %(default)s)",
    )
    p_explain.add_argument("-o", "--output", metavar="FILE",
                           help="output file (default stdout)")
    p_explain.set_defaults(func=cmd_explain)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.obs import METRICS, configure_logging

    args = build_parser().parse_args(argv)
    show_metrics = getattr(args, "metrics", False)
    configure_logging(getattr(args, "verbose", 0))
    try:
        status = args.func(args)
    except UsageError as error:
        # bad arguments exit 2, like argparse's own errors; real failures exit 1
        print(f"repro: {error}", file=sys.stderr)
        raise SystemExit(2)
    except OSError as error:
        if error.filename is None:
            raise
        # a path flag naming a directory, a missing parent, a read-only
        # file: the operator's mistake, reported like bad arguments
        print(f"repro: {error}", file=sys.stderr)
        raise SystemExit(2)
    except ReproError as error:
        raise SystemExit(f"repro: {error}")
    if show_metrics:
        from repro.flow.report import render_metrics_table

        print()
        print(render_metrics_table(METRICS.snapshot()))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
