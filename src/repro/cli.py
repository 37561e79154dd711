"""Command-line interface: inspect cores, plan and sweep systems, profile a run.

Usage (after ``pip install -e .``)::

    python -m repro cores                     # example cores + key stats
    python -m repro versions CPU              # a core's transparency ladder
    python -m repro plan System1              # test plan (min-area versions)
    python -m repro plan System1 -s CPU=3     # ...with the CPU at Version 3
    python -m repro sweep System1             # Figure 10's design space
    python -m repro schedule System3          # concurrent-session schedule
    python -m repro schedule System4 -p 80    # ...under a scan-power budget
    python -m repro lint System3              # static design-rule check
    python -m repro lint System3 --json       # ...as machine-readable JSON
    python -m repro certify System3 --json    # transparency proof certificate
    python -m repro certify System1 --replay  # ...checked against the simulator
    python -m repro profile System2           # the whole evaluation: Tables 2, 3 + run report
    python -m repro profile System1 --quick --baseline L.jsonl  # ...with a counter diff
    python -m repro profile System1 --quick --ledger L.jsonl    # ...appended as a ledger record
    python -m repro regress --ledger L.jsonl  # exact counter gate
    python -m repro validate cert.json L.jsonl  # schema check of any artifact

``profile`` is the one command that runs the flow driver
(:func:`repro.flow.profile.run_pipeline`, the paper's whole evaluation
of the system): it prints the run's one ledger record as a report, and
``--ledger`` appends the record, search-effort artifact included, as
its machine-readable form.  ``plan``, ``sweep``, ``schedule`` and
``export`` call the library directly.  Each command imports only what
it runs.

Exit codes: 0 success, 1 a runtime failure (or the subcommand's own
"found something" verdict), 2 a usage error -- bad arguments, an
unknown system, or a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
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


def _check_output(path: str) -> None:
    """Fail before any work on an ``-o`` path that cannot become a file:
    a directory, or one in a directory that does not exist.  Nothing is
    created or truncated here; :func:`_write_output` writes after the run."""
    target = Path(path)
    if target.is_dir():
        problem = errno.EISDIR
    elif not target.parent.is_dir():
        problem = errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write {path!r}: {os.strerror(problem)}")


# ----------------------------------------------------------------------
def cmd_cores(_args) -> int:
    from repro.designs.registry import MEMORY_CORES
    from repro.dft import insert_hscan
    from repro.elaborate import elaborate

    rows = []
    for name, builder in sorted(_core_builders().items()):
        circuit = builder()
        area = elaborate(circuit).netlist.area()
        if name in MEMORY_CORES:
            rows.append([name, circuit.flip_flop_count(), area, "-", "(memory: BIST)"])
            continue
        plan = insert_hscan(circuit)
        rows.append([name, circuit.flip_flop_count(), area, plan.depth,
                     f"{plan.extra_area} cells HSCAN"])
    print(render_table(["core", "FFs", "area(cells)", "scan depth", "DFT"], rows))
    return 0


def cmd_versions(args) -> int:
    from repro.designs.registry import MEMORY_CORES
    from repro.dft import insert_hscan
    from repro.flow.profile import regenerate_atpg
    from repro.transparency.versions import generate_versions

    builders = _core_builders()
    if args.core not in builders:
        raise UsageError(f"unknown core {args.core!r}; choose from {sorted(builders)}")
    if args.core in MEMORY_CORES:
        raise UsageError(
            f"{args.core} is a memory core (BIST-tested): it has no transparency versions"
        )
    circuit = builders[args.core]()
    versions = generate_versions(circuit, insert_hscan(circuit))
    _, atpg = regenerate_atpg(circuit, 0, None)
    # one row per version, shaped like the paper's Figures 6/8
    table = []
    for version in versions:
        row = {"version": version.name, "cells": version.extra_cells}
        for (port, lo, width), path in sorted(version.justify_paths.items()):
            row[f"justify {port}[{lo}+{width}]"] = path.latency
        for port, path in sorted(version.propagate_paths.items()):
            row[f"propagate {port}"] = path.latency
        table.append(row)
    headers = list(table[0].keys())
    rows = [[row.get(h, "-") for h in headers] for row in table]
    print(render_table(headers, rows, title=f"{args.core}: transparency versions"))
    print(f"\nATPG: {len(atpg.patterns)} vectors, "
          f"FC {atpg.report.fault_coverage:.1f}%, "
          f"TEff {atpg.report.test_efficiency:.1f}%")
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


def cmd_schedule(args) -> int:
    from repro.errors import ScheduleError
    from repro.flow.report import render_session_table
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

    if args.output:
        _check_output(args.output)
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
    from repro.lint import RULES, Severity, lint_soc

    if args.rules:
        rows = [[rule.rule_id, rule.scope, rule.severity.label, rule.title] for rule in RULES]
        print(render_table(["rule", "scope", "severity", "checks that"], rows,
                           title="registered lint rules"))
        return 0
    if not args.system:
        raise UsageError("a SYSTEM argument is required (or use --rules)")
    try:
        fail_on = Severity.parse(args.fail_on)
    except ValueError as error:
        raise UsageError(str(error))
    report = lint_soc(_build_system(args.system))
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 1 if report.has_at_least(fail_on) else 0


def cmd_certify(args) -> int:
    from repro.analysis import certify_soc, path_location, replay_soc
    from repro.lint import RULES, Diagnostic, Severity

    if args.output:
        _check_output(args.output)
    try:
        fail_on = Severity.parse(args.fail_on)
    except ValueError as error:
        raise UsageError(str(error))
    soc = _build_system(args.system)
    selection = _parse_selection(soc, args.select)
    certificate = certify_soc(soc, selection=selection)
    severity = {rule.rule_id: rule.severity for rule in RULES}
    # the one escalation: a refutation of the selected configuration is an error
    diagnostics = [
        Diagnostic(
            found.rule,
            Severity.ERROR if found.refutes_selection else severity[found.rule],
            found.location, found.message, found.hint,
        )
        for found in certificate.findings()
    ]
    if args.replay:
        replays = replay_soc(soc, certificate)
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


def _read_ledger(path: str, label: str, missing_ok: bool = False):
    """A user-supplied run ledger, checked with usage-grade errors.

    A missing path (unless ``missing_ok``: an append creates it), a
    directory, or a file that is not a run ledger (wrong schema, not
    JSONL) is an exit-2 usage error naming the offending path -- never a
    traceback: pointing ``--ledger``/``--baseline`` at the wrong file is
    an operator mistake, not a library failure.
    """
    from repro.errors import LedgerSchemaError
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(path)
    if not ledger.exists():
        if missing_ok:
            return ledger
        raise UsageError(f"{label} {path!r} does not exist")
    try:
        ledger.records()
    except LedgerSchemaError as error:
        raise UsageError(f"{label} {path!r} is not a run ledger: {error}")
    return ledger


def cmd_profile(args) -> int:
    from repro.flow.profile import QUICK_MAX_FAULTS, run_pipeline, series_key
    from repro.flow.report import render_run_report

    # check every path before the measured run: a bad path should fail
    # fast, not after minutes of pipeline work (and append no record)
    ledger = _read_ledger(args.ledger, "ledger", missing_ok=True) if args.ledger else None
    baseline = None
    if args.baseline:
        baseline = _read_ledger(args.baseline, "baseline ledger").latest(
            series_key(args.system, args.quick)
        )
    if args.output:
        _check_output(args.output)
    record = run_pipeline(
        args.system, seed=args.seed, max_faults=QUICK_MAX_FAULTS if args.quick else None
    )
    if ledger is not None:
        ledger.append(record)
        print(f"appended {record['bench']} record to {args.ledger}", file=sys.stderr)
    text = render_run_report(record, baseline)
    if args.output:
        _write_output(args.output, text)
        print(f"wrote run report to {args.output}")
    else:
        print(text)
    return 0


def cmd_regress(args) -> int:
    from repro.errors import RegressionError
    from repro.obs.regress import compare_ledgers

    candidate = _read_ledger(args.ledger, "ledger")
    baseline = _read_ledger(args.baseline, "baseline ledger") if args.baseline else None
    try:
        report = compare_ledgers(candidate, baseline, benches=args.bench or None)
    except RegressionError as error:
        raise UsageError(str(error))
    print(report.to_json() if args.json else report.render())
    return report.exit_code()


def cmd_validate(args) -> int:
    failures = 0
    for path in args.files:
        kind, problems = _validate_file(path)
        if problems:
            failures += 1
            print(f"FAIL {path}: {'; '.join(problems)}")
        else:
            print(f"ok   {path} ({kind})")
    return 1 if failures else 0


def _validate_file(path: str):
    """One artifact file's kind and every problem in it."""
    import json

    from repro.analysis.certify import CERTIFICATE_KIND, CERTIFICATE_SHAPE
    from repro.obs.attrib import ARTIFACT_SHAPE, ATTRIB_SCHEMA
    from repro.obs.ledger import LEDGER_SCHEMA, RECORD_SHAPE
    from repro.util.schema import check

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as error:
        return None, [f"cannot read: {getattr(error, 'strerror', None) or error}"]
    if path.endswith(".jsonl"):
        problems = []
        records = 0
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            records += 1
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as error:  # or nested too deep
                problems.append(f"line {lineno}: not JSON: {error}")
                continue
            problems.extend(f"line {lineno}: {p}" for p in check(RECORD_SHAPE, record))
        return f"{LEDGER_SCHEMA}, {records} records", problems
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as error:
        return None, [f"not JSON: {error}"]
    shapes = {
        CERTIFICATE_KIND: CERTIFICATE_SHAPE,
        LEDGER_SCHEMA: RECORD_SHAPE,
        ATTRIB_SCHEMA: ARTIFACT_SHAPE,
    }
    if isinstance(document, dict):
        for marker in (document.get("schema"), document.get("kind")):
            if isinstance(marker, str) and marker in shapes:
                return marker, check(shapes[marker], document)
    return None, [f"no schema or kind marker names a known kind ({', '.join(shapes)})"]


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOCET core-based SOC test planning (DAC'98 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cores = sub.add_parser("cores", help="list the example cores")
    p_cores.set_defaults(func=cmd_cores)

    p_versions = sub.add_parser("versions", help="a core's transparency versions")
    p_versions.add_argument("core")
    p_versions.set_defaults(func=cmd_versions)

    p_plan = sub.add_parser("plan", help="plan an SOC test")
    p_plan.add_argument("system")
    p_plan.add_argument("-s", "--select", help="version selection, e.g. CPU=3,DISPLAY=1")
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="sweep the version design space")
    p_sweep.add_argument("system")
    p_sweep.set_defaults(func=cmd_sweep)

    p_schedule = sub.add_parser("schedule", help="concurrent test-session schedule")
    p_schedule.add_argument("system")
    p_schedule.add_argument("-s", "--select", help="version selection, e.g. CPU=3")
    p_schedule.add_argument(
        "-a", "--algorithm", default="greedy",
        help="scheduler: greedy (list scheduling, the default) or sessions",
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
        "lint", help="static design-rule check of a system",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean: no diagnostics at or above --fail-on\n"
            "  1  diagnostics at or above --fail-on were reported\n"
            "  2  usage error (unknown system or severity)\n"
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
        "--rules", action="store_true",
        help="list every lint rule and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_certify = sub.add_parser(
        "certify", help="symbolic transparency certification of a system",
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

    p_export = sub.add_parser("export", help="export a test plan as JSON")
    p_export.add_argument("system")
    p_export.add_argument("-s", "--select", help="version selection, e.g. CPU=3")
    p_export.add_argument("-o", "--output", help="output file (default stdout)")
    p_export.set_defaults(func=cmd_export)

    p_profile = sub.add_parser(
        "profile", help="run the full pipeline, print its run report",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Prints one pipeline run as text tables: the run facts, the plan\n"
            "summary, SOCET against FSCAN-BSCAN (Table 2, the schedule rows,\n"
            "Table 3 with its grading budget, the speedup line), the stage\n"
            "table (self times plus the run's unaccounted time, rows that sum\n"
            "to the total), the top-10 hotspots by self time, the search-effort\n"
            "attribution (ATPG totals, hardest faults, optimizer convergence),\n"
            "and an exact counter diff against the baseline ledger's newest\n"
            "record of the same series.  The --ledger record is the run's\n"
            "machine-readable form; its attrib field is the repro-attrib\n"
            "artifact.\n"
        ),
    )
    p_profile.add_argument("system")
    p_profile.add_argument("--seed", type=int, default=0, help="ATPG seed (default 0)")
    p_profile.add_argument(
        "--quick", action="store_true",
        help="cap per-core ATPG at a sampled fault subset (seconds, not minutes)",
    )
    p_profile.add_argument(
        "--ledger", metavar="FILE",
        help="append this run (samples + counters + attribution artifact + "
             "env fingerprint) to a JSONL run ledger",
    )
    p_profile.add_argument(
        "--baseline", metavar="FILE",
        help="baseline ledger for the counter diff",
    )
    p_profile.add_argument("-o", "--output", metavar="FILE",
                           help="output file (default stdout)")
    p_profile.set_defaults(func=cmd_profile)

    p_regress = sub.add_parser(
        "regress", help="exact counter gate over a run ledger",
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
        "--json", action="store_true",
        help="emit the verdicts as a stable JSON document",
    )
    p_regress.set_defaults(func=cmd_regress)

    p_validate = sub.add_parser(
        "validate", help="check certificates, ledgers and attribution artifacts",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "A .jsonl file is a run ledger, checked line by line; any other\n"
            "file is one repro-certificate, repro-ledger or repro-attrib\n"
            "document, told apart by its schema or kind marker.  Prints one\n"
            "ok or FAIL line per file.\n\n"
            "exit codes:\n"
            "  0  every file conforms\n"
            "  1  a file is malformed, unreadable or of no known kind\n"
            "  2  usage error (no file named)\n"
        ),
    )
    p_validate.add_argument("files", nargs="+", metavar="FILE")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
