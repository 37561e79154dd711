"""Search-effort attribution: overhead and hard-fault stability.

Attribution must be *always-on-cheap*: each hook sits behind one
``enabled`` check, so collecting may not tax the run it describes.  This
bench times the work the hooks attribute -- System1's per-core ATPG at
``QUICK_MAX_FAULTS`` (the PODEM plane) followed by TAT minimization (the
optimizer plane), on an SOC built beforehand with warm caches -- with
the collector off and on, in alternating rounds so drift over the run
cannot read as overhead.  The trip condition has two parts: the median
on/off ratio must exceed 1.02x *and* a one-sided Mann-Whitney test on
the raw samples must be significant, so timing noise on an unchanged
pipeline cannot trip it, but a hook that grew real work will.  The on
arm's ``attrib.*`` record counts go into ``BENCH_explain.json`` and must
be non-zero: the gate times hooks that fire.

The second half pins the artifact itself: ``repro explain`` on System1
must produce a byte-identical artifact when re-run at the same seed,
and the top-10 hardest-fault table is recorded per seed (0, 1, 2) so
the difficulty ranking's trajectory is diffable across PRs.
"""

from __future__ import annotations

import statistics
import time

from conftest import SEED, write_bench_json, write_result

from repro.flow.profile import QUICK_MAX_FAULTS, regenerate_atpg, run_pipeline
from repro.obs import METRICS
from repro.obs.attrib import ATTRIB
from repro.obs.regress import mann_whitney_p
from repro.soc.optimizer import SocetOptimizer, design_space
from repro.util import render_table

#: per-arm timing rounds; 5v5 gives the rank test room to be significant
ROUNDS = 5
#: the trip condition needs both a ratio above this threshold and rank-test
#: significance; the threshold is tight because attribution overhead is a
#: design promise (<= 2%), not a noise band
MAX_OVERHEAD_RATIO = 1.02
ALPHA = 0.05
SEEDS = (0, 1, 2)
#: the counters of the records the on arm's hooks keep
ATTRIB_COUNTERS = ("attrib.podem.records", "attrib.optimizer.events")


def _attributed_work(soc, budget):
    """Per-core quick ATPG (PODEM hooks), then TAT minimization
    (optimizer hooks)."""
    for core in soc.testable_cores():
        regenerate_atpg(core.circuit, SEED, QUICK_MAX_FAULTS)
    SocetOptimizer(soc).minimize_tat(budget)


def _alternating_arms(soc, budget):
    """ROUNDS wall-time samples per arm, off and on rounds alternating,
    plus the attribution counters of each on round."""
    samples = {False: [], True: []}
    on_counters = []
    try:
        for _ in range(ROUNDS):
            for enabled in (False, True):
                ATTRIB.enabled = enabled
                ATTRIB.reset()
                before = {name: METRICS.counter(name).value for name in ATTRIB_COUNTERS}
                start = time.perf_counter()
                _attributed_work(soc, budget)
                samples[enabled].append(time.perf_counter() - start)
                if enabled:
                    on_counters.append({
                        name: METRICS.counter(name).value - before[name]
                        for name in ATTRIB_COUNTERS
                    })
    finally:
        ATTRIB.enabled = False
        ATTRIB.reset()
    return samples[False], samples[True], on_counters


def _hard_fault_tables():
    """Per-seed top-10 hardest faults, each seed proved byte-stable."""
    tables = {}
    for seed in SEEDS:
        report = run_pipeline(
            "System1", seed=seed, max_faults=QUICK_MAX_FAULTS
        )
        rerun = run_pipeline(
            "System1", seed=seed, max_faults=QUICK_MAX_FAULTS
        )
        assert report.artifact_json() == rerun.artifact_json(), (
            f"seed {seed}: explain artifact is not byte-stable across runs"
        )
        tables[str(seed)] = [
            {"fault": entry["fault"], "effort": entry["effort"],
             "status": entry["status"]}
            for entry in report.artifact["planes"]["atpg"]["hard_faults"]
        ]
    return tables


def test_explain_overhead_and_stability(benchmark, system1, results_dir):
    # stability first: run_pipeline resets the registry, so it must not
    # run between METRICS.reset() and write_bench_json below
    hard_faults = _hard_fault_tables()

    budget = max(point.chip_cells for point in design_space(system1))
    _attributed_work(system1, budget)  # warm every cache for both arms
    METRICS.reset()  # BENCH json carries exactly the measured runs' counters
    off, on, on_counters = benchmark.pedantic(
        _alternating_arms, args=(system1, budget), rounds=1, iterations=1
    )

    ratio = statistics.median(on) / statistics.median(off)
    p_value = mann_whitney_p(on, off)
    tripped = p_value < ALPHA and ratio > MAX_OVERHEAD_RATIO
    overhead = {
        "alpha": ALPHA,
        "mann_whitney_p": round(p_value, 4),
        "max_ratio": MAX_OVERHEAD_RATIO,
        "off_median_s": statistics.median(off),
        "on_counters": on_counters[0],
        "on_median_s": statistics.median(on),
        "on_over_off": round(ratio, 4),
        "rounds": ROUNDS,
        "tripped": tripped,
    }
    write_bench_json(
        results_dir, "explain", benchmark,
        {"hard_faults": hard_faults, "overhead": overhead},
    )

    rows = [
        [seed, row["fault"], row["effort"], row["status"]]
        for seed in sorted(hard_faults)
        for row in hard_faults[seed][:3]
    ]
    text = render_table(
        ["seed", "hardest faults (top 3)", "effort", "status"], rows,
        title=(
            f"Attribution overhead on/off = {ratio:.3f}x "
            f"(p={p_value:.3f}, trip at >{MAX_OVERHEAD_RATIO}x)"
        ),
    )
    write_result(results_dir, "explain", text)

    # the gate timed live hooks, and every on round kept the same records
    assert all(on_counters[0][name] > 0 for name in ATTRIB_COUNTERS), on_counters
    assert all(counts == on_counters[0] for counts in on_counters), on_counters
    # the always-on-cheap promise: collecting may not tax the work it
    # attributes
    assert not tripped, (
        f"attribution overhead {ratio:.3f}x (p={p_value:.3f}) exceeds "
        f"{MAX_OVERHEAD_RATIO}x on System1's ATPG and TAT minimization"
    )
    # every seed's table is ranked by descending effort; fewer than 10
    # rows just means fewer than 10 faults needed explicit PODEM targeting
    for seed, table in sorted(hard_faults.items()):
        efforts = [row["effort"] for row in table]
        assert efforts == sorted(efforts, reverse=True), seed
        assert 1 <= len(table) <= 10, seed
