"""Shared fixtures for the benchmark harness.

System builds (which include per-core HSCAN insertion and transparency
version synthesis) are cached per session; each bench writes the table
it reproduces to ``benchmarks/results/<bench>.txt`` so the numbers are
inspectable alongside the timing output, and appends its run -- wall
time samples, counters, section totals and its results payload -- as
one ``repro-ledger`` record to ``benchmarks/results/ledger.jsonl`` (see
:mod:`repro.obs.ledger`), the only place bench results are stored.

Every randomized stage in the benches (ATPG random phases, fault
sampling, functional stimuli) is pinned to :data:`SEED`, so two runs of
the same bench produce identical plans, schedules, coverage and
counters (only wall time moves).
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import pytest

# ----------------------------------------------------------------------
# deterministic counter universe
# ----------------------------------------------------------------------
# Module-scope instruments exist in the shared registry only once their
# module is imported, and registry snapshots record zeros for idle
# instruments (zero vs absent are different facts to the counter gate).
# Import every instrumented pipeline module up front so a bench records
# the same counter set whether its file runs solo (as CI does) or as
# part of the full suite -- otherwise "atpg.patterns: 0 -> absent"
# style drift would trip `repro regress` purely from invocation shape.
import repro.atpg.combinational  # noqa: F401
import repro.atpg.podem  # noqa: F401
import repro.dft.hscan  # noqa: F401
import repro.faults.kernel  # noqa: F401
import repro.faults.simulator  # noqa: F401
import repro.gates.kernel  # noqa: F401
import repro.lint.registry  # noqa: F401
import repro.obs.ledger  # noqa: F401
import repro.obs.regress  # noqa: F401
import repro.schedule.packers  # noqa: F401
import repro.soc.optimizer  # noqa: F401
import repro.soc.plan  # noqa: F401
import repro.transparency.search  # noqa: F401

RESULTS_DIR = Path(__file__).parent / "results"

#: the one seed every randomized stage (ATPG random phase, fault
#: sampling) is pinned to -- benches must be bit-identical across runs
SEED = 0


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return SEED


#: session-cached SOCs, tracked so every bench can start from cold
#: planning caches (see :func:`canonical_cache_state`)
_SESSION_SOCS: List = []


def _track(soc):
    _SESSION_SOCS.append(soc)
    return soc


@pytest.fixture(autouse=True)
def canonical_cache_state():
    """Reset cross-test warm state so counters are invocation-invariant.

    The plan cache lives on the (session-cached) ``Soc`` objects and
    compiled kernels are shared per netlist, so a bench that runs after
    another bench in the same session would otherwise count fewer
    ``chiplevel.*`` / ``kernel.*`` events than the same bench run solo
    -- and its ledger record would trip the exact counter gate against
    history recorded under the other invocation shape.
    """
    from repro.gates.kernel import clear_kernel_caches

    for soc in _SESSION_SOCS:
        soc.invalidate()
    clear_kernel_caches()
    yield


@pytest.fixture(scope="session")
def system1():
    from repro.designs import build_system1

    return _track(build_system1())


@pytest.fixture(scope="session")
def system1_paper_vectors():
    """System 1 with the paper's DISPLAY test-set size (105 vectors).

    Used by the Section 3 worked example, whose published cycle counts
    (525 x 9 + 3 = 4,728 etc.) assume 105 combinational vectors.
    """
    from repro.designs import build_system1

    return _track(build_system1(test_vectors={"DISPLAY": 105}))


@pytest.fixture(scope="session")
def system2():
    from repro.designs import build_system2

    return _track(build_system2())


@pytest.fixture(scope="session")
def system3():
    from repro.designs import build_system3

    return _track(build_system3())


@pytest.fixture(scope="session")
def system4():
    from repro.designs import build_system4

    return _track(build_system4())


@pytest.fixture(scope="session")
def all_systems(system1, system2, system3, system4):
    """The registered designs, in registry order."""
    return [system1, system2, system3, system4]


def write_result(results_dir: Path, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


#: every bench appends its run record here
LEDGER_NAME = "ledger.jsonl"


def record_bench(results_dir: Path, name: str, benchmark, results, runs=()) -> None:
    """Append the bench's run to the results ledger as one record.

    ``results`` is the bench-specific free-form payload; the raw
    per-round wall times come from the pytest-benchmark fixture, and the
    counters (zeros included) and section totals straight from the
    shared metrics registry (callers reset it before the measured run).
    A bench that measures flow-driver runs passes their records as
    ``runs`` instead: each run resets the registry, so their counters
    and section totals are summed.  ``repro regress`` compares the
    record against the series' previous one.
    """
    from repro.obs import METRICS
    from repro.obs.ledger import RunLedger, make_record

    if runs:
        counters, sections = {}, {}
        for run in runs:
            for counter, value in run["counters"].items():
                counters[counter] = counters.get(counter, 0) + value
            for section, totals in run["histograms"].items():
                summed = sections.setdefault(section, dict.fromkeys(totals, 0))
                for field, value in totals.items():
                    summed[field] += value
    else:
        counters, sections = dict(METRICS.counters()), METRICS.sections() or None
    samples = [float(value) for value in benchmark.stats.stats.data]
    ledger = RunLedger(results_dir / LEDGER_NAME)
    ledger.append(
        make_record(name, samples, counters, results=results, histograms=sections)
    )
    print(f"[run appended to {ledger.path}]")
