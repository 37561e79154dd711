"""Vectorized simulation kernels: compiled numpy programs vs the scalar reference.

Times the two fault-grading workloads that dominate the Table 3
pipeline on the kernels and on the scalar reference graders
(``FaultSimulator.reference_run``, ``reference_grade_sequence_group``)
and asserts bit-identity between them:

* sequential whole-chip grading of the flattened System1 netlist (the
  ``Orig.``/``HSCAN`` row class) -- the headline kernel win, asserted
  against :data:`KERNEL_SPEEDUP_FLOOR` when the runner has real CPUs;
* per-core combinational grading of System1's cores under 512 random
  patterns (the scan row class) -- recorded, not floored, because the
  scalar-parity replay loop (exact ``faultsim.*`` counters and fault
  dropping order) bounds the win on small cores.

Identity is checked the hard way: ``detected`` order, ``undetected``
survivors, ``first_detection`` indices, and the per-run ``faultsim.*``
counter deltas must match exactly.  The bench's ledger record carries
the timing matrix plus the ``kernel.*`` compile/cache counters.
"""

from __future__ import annotations

import os
import random
import time

import pytest
from conftest import SEED, record_bench, write_result

from repro.elaborate import elaborate
from repro.faults import FaultSimulator, collapse_faults, full_fault_universe
from repro.faults import kernel as fault_kernel
from repro.faults.simulator import reference_grade_sequence_group, sequential_fault_grade
from repro.flow.system_netlist import flatten_soc
from repro.gates import GateKind
from repro.obs import METRICS
from repro.util import render_table

ROUNDS = 1
#: sequential whole-chip grading floor, asserted when cpus >= 4 (a
#: starved shared runner skews wall clocks)
KERNEL_SPEEDUP_FLOOR = 5.0
SEQUENCES = 16
SEQUENCE_LENGTH = 12
FAULT_SAMPLE = 120
CORE_PATTERNS = 512


def _timed(fn, repeat):
    """Best-of-``repeat`` wall time, with the ``faultsim.*`` counter deltas."""
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        counters_before = dict(METRICS.counters("faultsim."))
        result = fn()
        elapsed = time.perf_counter() - start
        counters_after = METRICS.counters("faultsim.")
        best = elapsed if best is None else min(best, elapsed)
    delta = {
        key: counters_after[key] - counters_before.get(key, 0)
        for key in counters_after
        if counters_after[key] != counters_before.get(key, 0)
    }
    return best, result, delta


def _assert_identical(workload, scalar, vector):
    (_, rs, ds), (_, rn, dn) = scalar, vector
    assert rs.detected == rn.detected, f"{workload}: detected diverged"
    assert rs.undetected == rn.undetected, f"{workload}: undetected diverged"
    assert rs.first_detection == rn.first_detection, f"{workload}: first_detection diverged"
    assert ds == dn, f"{workload}: faultsim counters diverged: {ds} vs {dn}"


def _sequential_workload(soc):
    netlist = flatten_soc(soc, with_hscan=False, scan_access="none")
    faults = collapse_faults(netlist, full_fault_universe(netlist))
    rng = random.Random(SEED)
    input_names = [g.name for g in netlist.inputs]
    stimuli = [
        [{name: rng.getrandbits(1) for name in input_names} for _ in range(SEQUENCE_LENGTH)]
        for _ in range(SEQUENCES)
    ]

    def grade():
        return sequential_fault_grade(
            netlist, stimuli, faults, sample=FAULT_SAMPLE, seed=SEED
        )

    # the same entry point, sampling and chunking, with the reference
    # grading each group in place of the kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fault_kernel, "grade_sequence_group", reference_grade_sequence_group)
        scalar = _timed(grade, repeat=1)
    vector = _timed(grade, repeat=1)
    _assert_identical("sequential", scalar, vector)
    return {
        "gates": len(netlist),
        "faults": len(faults),
        "detected": len(vector[1].detected),
        "scalar_wall_s": scalar[0],
        "numpy_wall_s": vector[0],
        "speedup": scalar[0] / max(vector[0], 1e-9),
    }


def _core_workloads(soc):
    out = {}
    for core in soc.testable_cores():
        netlist = elaborate(core.circuit).netlist
        faults = collapse_faults(netlist, full_fault_universe(netlist))
        rng = random.Random(SEED + 1)
        sources = [
            g.name
            for g in netlist.gates()
            if g.kind in (GateKind.INPUT, GateKind.DFF, GateKind.SDFF)
        ]
        patterns = [
            {name: rng.getrandbits(1) for name in sources} for _ in range(CORE_PATTERNS)
        ]

        scalar = _timed(
            lambda: FaultSimulator(netlist).reference_run(patterns, faults), repeat=2
        )
        vector = _timed(lambda: FaultSimulator(netlist).run(patterns, faults), repeat=2)
        _assert_identical(core.name, scalar, vector)
        out[core.name] = {
            "gates": len(netlist),
            "faults": len(faults),
            "detected": len(vector[1].detected),
            "scalar_wall_s": scalar[0],
            "numpy_wall_s": vector[0],
            "speedup": scalar[0] / max(vector[0], 1e-9),
        }
    return out


def run_matrix(soc):
    return _sequential_workload(soc), _core_workloads(soc)


def test_kernel_speedups(benchmark, results_dir, system1):
    METRICS.reset()  # the record carries exactly the measured runs' counters
    sequential, cores = benchmark.pedantic(
        run_matrix, args=(system1,), rounds=ROUNDS, iterations=1
    )

    cpus = os.cpu_count() or 1
    # kernel speedup is arithmetic density, but a starved shared runner
    # still skews wall clocks
    if cpus >= 4:
        assert sequential["speedup"] >= KERNEL_SPEEDUP_FLOOR, (
            f"sequential kernel speedup {sequential['speedup']:.1f}x below "
            f"{KERNEL_SPEEDUP_FLOOR}x floor ({cpus} CPUs)"
        )

    payload = {
        "cpus": cpus,
        "floor": KERNEL_SPEEDUP_FLOOR,
        "sequential": sequential,
        "cores": cores,
    }
    record_bench(results_dir, "kernels", benchmark, payload)

    rows = [
        [
            "chip (sequential)",
            sequential["gates"],
            sequential["faults"],
            f"{sequential['scalar_wall_s'] * 1000:.1f}",
            f"{sequential['numpy_wall_s'] * 1000:.1f}",
            f"{sequential['speedup']:.1f}x",
        ]
    ]
    for name in sorted(cores):
        entry = cores[name]
        rows.append(
            [
                f"{name} (scan)",
                entry["gates"],
                entry["faults"],
                f"{entry['scalar_wall_s'] * 1000:.1f}",
                f"{entry['numpy_wall_s'] * 1000:.1f}",
                f"{entry['speedup']:.1f}x",
            ]
        )
    text = render_table(
        ["workload", "gates", "faults", "scalar (ms)", "numpy (ms)", "speedup"],
        rows,
        title=f"Fault-grading kernels: scalar oracle vs compiled numpy ({cpus} CPUs)",
    )
    write_result(results_dir, "kernels", text)
