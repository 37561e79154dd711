"""Differential replay: certified paths versus the gate-level simulator.

The certifier's identity anchor: whenever a certificate
(:func:`repro.analysis.certify_soc`) says a transparency path is
*proved*, wiring that path's test mode into the core
(:func:`~repro.transparency.apply.apply_transparency_path`), elaborating
to gates, and clocking random data words through the declared mode
sequence must show every proved segment transporting its bits verbatim.
:func:`replay_soc` runs this bargain over every path the certificate
proved, in every version of every core of a system; it proves nothing
itself.  The converse, that a path the certifier *refutes* fails to
transport or cannot be realized at all, is checked on the refuted
fixtures by ``tests/test_differential.py``.

Replay drives the proof's own segment map, not the path's summary
claim: each trial picks an independent random word per terminal port
(plus random noise on every uninvolved input), holds them constant
through the freeze schedule, and probes after exactly the declared
latency.  Holding stimulus constant makes mixed-latency segment maps
sound: any segment's data is still in place at the final probe cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.provenance import SliceProof
from repro.elaborate import elaborate
from repro.errors import TransparencyError
from repro.gates import SequentialSimulator
from repro.obs import METRICS, profile_section
from repro.transparency.apply import apply_transparency_path

#: every replay's random stimulus: the seed its per-path streams derive
#: from, and the random words clocked through each proved path
REPLAY_SEED = 2024
REPLAY_TRIALS = 2


@dataclass
class ReplayResult:
    """Outcome of replaying one path on the gate-level simulator."""

    core: str
    version_index: int
    direction: str
    port: str
    latency: int
    trials: int
    ok: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "version": self.version_index,
            "direction": self.direction,
            "port": self.port,
            "latency": self.latency,
            "trials": self.trials,
            "ok": self.ok,
            "detail": self.detail,
        }


def _stimulus_words(
    inputs: List[str], app, stimulus: Dict[str, int], step: int
) -> Dict[str, int]:
    """Flatten per-port stimulus into the simulator's per-gate input map."""
    words = {}
    for name in inputs:
        port, _, bit = name.rpartition(".")
        words[name] = (stimulus.get(port, 0) >> int(bit)) & 1
    words[f"{app.mode_input}.0"] = 1
    for register, hold_name in sorted(app.hold_inputs.items()):
        words[f"{hold_name}.0"] = 1 if step in app.schedule.get(register, set()) else 0
    return words


def _run_mode(
    sim: SequentialSimulator, app, stimulus: Dict[str, int], latency: int
) -> Dict[str, int]:
    """Clock one mode sequence from zeroed flops on the mode netlist's
    simulator; return the final-cycle output gate values."""
    sim.states = dict.fromkeys(sim.states, 0)
    inputs = [gate.name for gate in sim.netlist.inputs]
    for step in range(latency):
        sim.step(_stimulus_words(inputs, app, stimulus, step))
    # outputs returned by a step reflect the state entering it
    return sim.step(_stimulus_words(inputs, app, stimulus, latency))


def _segment_mismatches(proof: SliceProof, stimulus: Dict[str, int], outputs: Dict[str, int]) -> List[str]:
    """Check every proved segment against one finished mode sequence."""
    problems: List[str] = []
    for segment in proof.segments:
        if proof.direction == "justify":
            observed_port, observed_lo = proof.root.comp, segment.root_lo
            expected_word = stimulus.get(segment.terminal, 0) >> segment.terminal_lo
        else:
            observed_port, observed_lo = segment.terminal, segment.terminal_lo
            expected_word = stimulus.get(proof.root.comp, 0) >> segment.root_lo
        mask = (1 << segment.width) - 1
        expected = expected_word & mask
        observed = sum(
            (outputs[f"{observed_port}.{observed_lo + i}"] & 1) << i
            for i in range(segment.width)
        )
        if observed != expected:
            problems.append(
                f"segment {segment}: observed {observed:#x}, expected {expected:#x}"
            )
    return problems


def _random_stimulus(circuit, app, rng: random.Random) -> Dict[str, int]:
    """One random word per original circuit input (mode/holds excluded)."""
    skip = {app.mode_input} | set(app.hold_inputs.values())
    stimulus: Dict[str, int] = {}
    for port in sorted(circuit.inputs, key=lambda p: p.name):
        if port.name in skip:
            continue
        stimulus[port.name] = rng.getrandbits(port.width)
    return stimulus


def replay_path(circuit, proof) -> ReplayResult:
    """Replay one certified path (a :class:`~repro.analysis.PathProof`);
    ``ok`` iff every segment of its proof transports.  A refuted path
    is not simulated: it is reported not ok."""
    path = proof.path
    label = str(path.root)

    def result(trials: int, problem: str) -> ReplayResult:
        """The outcome: the path transports when no problem was found."""
        return ReplayResult(proof.core, proof.version_index, path.direction, label,
                            path.latency, trials, not problem, problem)

    if not proof.proved:
        return result(0, "path is not proved")
    try:
        app = apply_transparency_path(circuit, path)
    except TransparencyError as error:
        return result(0, f"proved path is unrealizable: {error}")
    sim = SequentialSimulator(elaborate(app.circuit).netlist)
    rng = random.Random(
        f"{REPLAY_SEED}:{proof.core}:{proof.version_index}:{path.direction}:{label}"
    )
    for trial in range(REPLAY_TRIALS):
        stimulus = _random_stimulus(circuit, app, rng)
        outputs = _run_mode(sim, app, stimulus, path.latency)
        problems = _segment_mismatches(proof.proof, stimulus, outputs)
        if problems:
            METRICS.counter("analysis.replay.mismatches").inc()
            return result(trial + 1, "; ".join(problems[:3]))
    METRICS.counter("analysis.replays").inc()
    return result(REPLAY_TRIALS, "")


def replay_soc(soc, certificate) -> List[ReplayResult]:
    """Replay every path ``certificate`` proved, on its core's circuit.

    The certificate is the one verdict: a path it refutes -- on slice
    provenance, select demands or its own structure -- is not replayed,
    and each replay checks the certificate's own segment map.
    """
    with profile_section("analysis.replay"):
        return [
            replay_path(soc.cores[proof.core].circuit, proof)
            for proof in certificate.iter_paths()
            if proof.proved
        ]
