"""Run one benchmark workload at one seed and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload atpg --seed 1 --seconds 20 --trace 0

The program is imported from ./src.  The lines before the last describe
the run (passes, ops, environment); the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics and writes the span tree to perfbench/out/.
Without ./src/repro the command exits 1 and prints no result.
"""

import time

STARTED = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("atpg", "plan", "grade")

#: the program's behaviour switches, pinned so that a stray variable in
#: the caller's environment never changes which program is measured
#: (None: unset, which is the program's default)
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_SIM_BACKEND": None,
    "REPRO_PLAN_CACHE": None,
    "REPRO_ATTRIB": None,
    # no thread pools beside the measured thread
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment() -> None:
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def import_program() -> None:
    """Import the program from ./src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'repro'}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported {repro.__file__}, not the one in {src}")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned": {name: os.environ.get(name) for name in PINNED_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(ROOT))
    from perfbench import harness

    def import_all():
        import_program()
        from perfbench import workloads  # noqa: F401  (imports the program's layers)

    # the probes around the program's imports are not part of set-up
    so_far = time.perf_counter() - STARTED
    seconds, probe_seconds = harness.timed_setup(import_all)
    imports = (so_far + seconds, probe_seconds)
    from perfbench import trace, workloads

    env = environment()
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = harness.measure_traced(workload_cls, args.seed, args.seconds, args.tiny)
    else:
        result = harness.measure(workload_cls, args.seed, args.seconds, args.tiny, imports)

    print(
        f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
        f"{result.passes} passes, {result.attempted} ops, {result.failed} failed"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    if result.raw is not None:
        print("raw host time " + json.dumps(result.raw, sort_keys=True))
    if args.trace:
        op_wall = sum(result.layers.values())
        print(f"self ms per pass (sum {op_wall:.1f} = op wall time):")
        for name, ms in sorted(result.layers.items(), key=lambda row: -row[1]):
            print(f"  {name:24s} {ms:12.3f}")
        path = ROOT / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json"
        trace.export(result.recorder, path, {
            "workload": args.workload,
            "seed": args.seed,
            "environment": env,
            "layers_ms_per_pass": result.layers,
            "op_wall_ms_per_pass": op_wall,
            "metrics": {name: value for name, (value, _) in result.metrics.items()},
        })
        print(f"trace written to {path.relative_to(ROOT)}")
        if result.recorder.absent:
            print("absent: " + ", ".join(sorted(result.recorder.absent)), file=sys.stderr)
    for problem in result.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
