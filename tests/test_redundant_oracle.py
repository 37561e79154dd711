"""Exhaustive-support oracle for PODEM's REDUNDANT verdicts on the six cores.

The *support* of a stuck-at fault is the set of sources (inputs and
flip-flops) in the fan-in of every observation point its fanout cone
reaches.  Grading all 2^n assignments of an n-source support, with every
other source at 0, is therefore a complete test: a fault none of them
detects is undetectable.  Grading here uses the scalar reference path
(:meth:`CombinationalSimulator.run` plus
:meth:`ReferenceGrader.detect_word` of ``tests/reference_graders.py``),
not the kernels the ATPG grades with.

Each core's seed-0 ATPG over its full collapsed fault list is run once,
recording every PODEM result.  Verdicts whose support is wider than
:data:`SUPPORT_LIMIT` stay unchecked; :data:`UNCHECKED` names them.  The
same runs pin each core's pattern list (:data:`PATTERN_LISTS`).
"""

import hashlib
from typing import Dict, List

import pytest

from repro.atpg import combinational
from repro.atpg.podem import PodemResult, PodemStatus, podem
from repro.designs import (
    build_cpu,
    build_display,
    build_gcd,
    build_graphics,
    build_preprocessor,
    build_x25,
)
from repro.elaborate import elaborate
from repro.faults import collapse_faults, full_fault_universe
from repro.faults.model import Fault
from repro.gates.cells import STATE_KINDS, GateKind
from repro.gates.netlist import GateNetlist
from repro.gates.simulator import CombinationalSimulator

from tests.reference_graders import ReferenceGrader

BUILDERS = (build_cpu, build_preprocessor, build_display, build_graphics, build_gcd, build_x25)

#: widest support graded exhaustively (2^20 assignments)
SUPPORT_LIMIT = 20
#: support sources enumerated inside one packed word; wider supports
#: fix the rest per word, so a word stays 2^12 bits
WORD_BITS = 12

_SOURCE_KINDS = (GateKind.INPUT,) + STATE_KINDS

#: REDUNDANT verdicts whose support is wider than SUPPORT_LIMIT: unchecked
UNCHECKED = {
    "CPU": (
        "ALU_ADD_2.pin1/sa0", "ALU_ADD_4.pin0/sa1", "ALU_ADD_4/sa0",
        "FLAG_C_11.pin0/sa1", "FLAG_C_11.pin1/sa1", "FLAG_C_12.pin1/sa1",
        "OPCODE_0/sa1", "OPCODE_10.pin0/sa1", "OPCODE_11.pin0/sa1",
        "OPCODE_12.pin0/sa1", "OPCODE_12.pin1/sa1", "OPCODE_13.pin0/sa1",
        "OPCODE_13.pin1/sa1", "OPCODE_14.pin0/sa1", "OPCODE_14.pin1/sa1",
        "OPCODE_15.pin0/sa1", "OPCODE_15.pin1/sa1", "OPCODE_16.pin0/sa1",
        "OPCODE_16.pin1/sa1", "OPCODE_17.pin0/sa1", "OPCODE_17.pin1/sa1",
        "OPCODE_18.pin0/sa1", "OPCODE_18.pin1/sa1", "OPCODE_19.pin0/sa1",
        "OPCODE_19.pin1/sa1", "OPCODE_4.pin0/sa1", "OPCODE_5.pin0/sa1",
        "OPCODE_6.pin0/sa1", "OPCODE_7.pin0/sa1", "OPCODE_8.pin0/sa1",
        "OPCODE_9.pin0/sa1", "PC_INC_2.pin1/sa1",
    ),
    "PREPROCESSOR": (
        "OVER_11.pin0/sa1", "OVER_11.pin1/sa1", "OVER_12.pin1/sa1",
        "SMOOTH_4.pin0/sa1", "SMOOTH_4/sa0",
    ),
    "DISPLAY": (),
    "GRAPHICS": ("ERRN_11.pin0/sa1", "ERRN_11.pin1/sa1", "ERRN_12.pin1/sa1"),
    "GCD": (
        "XLT_11.pin0/sa1", "XLT_11.pin1/sa1", "XLT_12.pin1/sa1",
        "XMY_11.pin0/sa1", "XMY_11.pin1/sa1", "XMY_12.pin1/sa1",
        "YMX_11.pin0/sa1", "YMX_11.pin1/sa1", "YMX_12.pin1/sa1",
    ),
    "X25": (),
}

#: each core's seed-0 pattern count and the SHA-256 of its pattern list,
#: one line of source bits per pattern in ``GateNetlist.sources`` order
PATTERN_LISTS = {
    "CPU": (55, "275d124f5a4d2db2f43a528ed74e1ec3ef24fca73499994c3b1d0253f9a8cca5"),
    "PREPROCESSOR": (41, "6f46e291afc45c5f3a3d5b61c9496e168d2bd133bd3d82e1248e0ca6c427ce72"),
    "DISPLAY": (52, "3383e55519aea589e6461192c0c8f4857a8d55bda8ea516140b7542a2785b222"),
    "GRAPHICS": (32, "5f4ac5673e13d6753952925a0385c31131d3b88c2db99445ffcd11e6b4f9fc42"),
    "GCD": (48, "e615e0602f4990c70cdccbda5ccbeb348ebdb4308d655409833b843b35cea723"),
    "X25": (27, "32760c76141dbb690fd2939f4819d47a5fa5481b556f3b8beba733666a570d5e"),
}


class CoreRun:
    """One core's seed-0 ATPG, with every PODEM result it saw."""

    def __init__(self, netlist: GateNetlist) -> None:
        self.netlist = netlist
        self.grader = ReferenceGrader(netlist)
        self.evaluator = CombinationalSimulator(netlist)
        self.calls: Dict[Fault, PodemResult] = {}

        def recording(target, fault, **kwargs):
            result = podem(target, fault, **kwargs)
            self.calls[fault] = result
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(combinational, "podem", recording)
            self.outcome = combinational.CombinationalAtpg(netlist, seed=0).run()

    def observed(self, fault: Fault) -> List[str]:
        """Observation points the fault can reach (the reference cone walk)."""
        gate = self.netlist.gate(fault.gate)
        if fault.pin is not None and gate.kind in STATE_KINDS:
            return [gate.fanins[fault.pin]]  # a flop input pin is seen at capture
        return self.grader.cone(fault.gate)[1]

    def support(self, fault: Fault) -> List[str]:
        """Sources in the fan-in of every observation point the fault reaches."""
        stack = list(self.observed(fault))
        seen = set(stack)
        sources = []
        while stack:
            gate = self.netlist.gate(stack.pop())
            if gate.kind in _SOURCE_KINDS:
                sources.append(gate.name)
                continue
            for fanin in gate.fanins:
                if fanin not in seen:
                    seen.add(fanin)
                    stack.append(fanin)
        return sorted(sources)

    def detected_exhaustively(self, fault: Fault, support: List[str]) -> bool:
        """Does any of the 2^n assignments of ``support`` detect ``fault``?"""
        inner, outer = support[:WORD_BITS], support[WORD_BITS:]
        count = 1 << len(inner)
        mask = (1 << count) - 1
        words = {gate.name: 0 for gate in self.netlist.gates() if gate.kind in _SOURCE_KINDS}
        for bit, name in enumerate(inner):
            words[name] = _counting_word(bit, count)
        for chunk in range(1 << len(outer)):
            for bit, name in enumerate(outer):
                words[name] = mask if chunk >> bit & 1 else 0
            good = self.evaluator.run(words, count)
            if self.grader.detect_word(fault, good, mask, count):
                return True
        return False


def _counting_word(bit: int, count: int) -> int:
    """The ``count``-bit word whose bit k is bit ``bit`` of k."""
    half = 1 << bit
    block = ((1 << half) - 1) << half
    return block * (((1 << count) - 1) // ((1 << 2 * half) - 1))


@pytest.fixture(scope="module")
def runs() -> Dict[str, CoreRun]:
    return {
        netlist.name: CoreRun(netlist)
        for netlist in (elaborate(build()).netlist for build in BUILDERS)
    }


def test_counting_word_enumerates_every_assignment():
    words = [_counting_word(bit, 8) for bit in range(3)]
    assignments = [sum((word >> k & 1) << bit for bit, word in enumerate(words)) for k in range(8)]
    assert assignments == list(range(8))


def test_every_narrow_redundant_verdict_survives_exhaustive_grading(runs):
    checked = 0
    for name, run in runs.items():
        wider = []
        for fault in run.outcome.redundant:
            support = run.support(fault)
            if len(support) > SUPPORT_LIMIT:
                wider.append(str(fault))
                continue
            assert not run.detected_exhaustively(fault, support), f"{name}: {fault} is detectable"
            checked += 1
        assert sorted(wider) == sorted(UNCHECKED[name]), name
    assert checked == 269


def test_exhaustive_grading_detects_podem_targets(runs):
    """The oracle is not vacuous: it detects PODEM's narrow DETECTED targets."""
    targets = 0
    for name, run in runs.items():
        for fault, result in run.calls.items():
            support = run.support(fault)
            if result.status is PodemStatus.DETECTED and len(support) <= SUPPORT_LIMIT:
                assert run.detected_exhaustively(fault, support), f"{name}: {fault}"
                targets += 1
    assert targets == 48


def test_proved_without_search_exactly_when_no_observation_point_is_reached(runs):
    for name, run in runs.items():
        unsearched = {
            fault for fault, result in run.calls.items()
            if result == PodemResult(PodemStatus.REDUNDANT)
        }
        universe = collapse_faults(run.netlist, full_fault_universe(run.netlist))
        unobservable = {fault for fault in universe if not run.observed(fault)}
        assert unsearched == unobservable, name
        assert unsearched <= set(run.outcome.redundant), name


def test_only_two_cpu_carry_faults_abort_and_a_higher_limit_detects_them(runs):
    aborted = {name: sorted(str(f) for f in run.outcome.aborted) for name, run in runs.items()}
    assert aborted == {
        name: (["FLAG_C_24/sa1", "FLAG_C_27.pin0/sa1"] if name == "CPU" else []) for name in runs
    }
    cpu = runs["CPU"]
    for fault in cpu.outcome.aborted:
        assert len(cpu.support(fault)) == 23, fault
        assert podem(cpu.netlist, fault, backtrack_limit=600).status is PodemStatus.DETECTED


def test_seed0_pattern_lists_are_pinned(runs):
    """A core's test is its pattern set: the random draw and PODEM's
    completions must reproduce every pattern bit for bit."""
    for name, run in runs.items():
        sources = run.netlist.sources
        lines = ["".join(str(pattern[s]) for s in sources) for pattern in run.outcome.patterns]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == PATTERN_LISTS[name], name
