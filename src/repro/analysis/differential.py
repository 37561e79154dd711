"""Differential replay: certified paths versus the gate-level simulator.

The certifier's identity anchor: whenever :mod:`repro.analysis` says a
transparency path is *proved*, wiring that path's test mode into the
core (:func:`~repro.transparency.apply.apply_transparency_path`),
elaborating to gates, and clocking random data words through the
declared mode sequence must show every proved segment transporting its
bits verbatim -- and whenever the certifier *refutes* a path, the same
replay must either fail to transport or the mode must be unrealizable
outright.  :func:`replay_soc` runs this bargain over every version of
every core of a system.

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
from typing import Dict, List, Optional

from repro.analysis.provenance import SliceProof, prove_path
from repro.elaborate import elaborate
from repro.errors import TransparencyError
from repro.gates import SequentialSimulator
from repro.obs import METRICS, profile_section
from repro.transparency.apply import apply_transparency_path


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


def _stimulus_words(elab, app, stimulus: Dict[str, int], step: int) -> Dict[str, int]:
    """Flatten per-port stimulus into the simulator's per-gate input map."""
    words = {}
    for gate in elab.netlist.inputs:
        port, _, bit = gate.name.rpartition(".")
        words[gate.name] = (stimulus.get(port, 0) >> int(bit)) & 1
    words[f"{app.mode_input}.0"] = 1
    for register, hold_name in sorted(app.hold_inputs.items()):
        words[f"{hold_name}.0"] = 1 if step in app.schedule.get(register, set()) else 0
    return words


def _run_mode(elab, app, stimulus: Dict[str, int], latency: int) -> Dict[str, int]:
    """Clock one mode sequence; return the final-cycle output gate values."""
    sim = SequentialSimulator(elab.netlist)
    for step in range(latency):
        sim.step(_stimulus_words(elab, app, stimulus, step))
    # outputs returned by a step reflect the state entering it
    return sim.step(_stimulus_words(elab, app, stimulus, latency))


def _port_word(outputs: Dict[str, int], port: str, width: int) -> int:
    return sum((outputs[f"{port}.{i}"] & 1) << i for i in range(width))


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


def replay_path(
    circuit,
    path,
    proof: Optional[SliceProof] = None,
    core: str = "",
    version_index: int = 0,
    seed: int = 2024,
    trials: int = 2,
) -> ReplayResult:
    """Replay one *proved* path; ``ok`` iff every segment transports."""
    if proof is None:
        proof = prove_path(circuit, path)
    label = str(path.root)
    if not proof.proved:
        return ReplayResult(
            core, version_index, path.direction, label, path.latency, 0, False,
            "path is not proved; use replay_refutes for refuted paths",
        )
    try:
        app = apply_transparency_path(circuit, path)
    except TransparencyError as error:
        return ReplayResult(
            core, version_index, path.direction, label, path.latency, 0, False,
            f"proved path is unrealizable: {error}",
        )
    elab = elaborate(app.circuit)
    rng = random.Random(f"{seed}:{core}:{version_index}:{path.direction}:{label}")
    for trial in range(trials):
        stimulus = _random_stimulus(circuit, app, rng)
        outputs = _run_mode(elab, app, stimulus, path.latency)
        problems = _segment_mismatches(proof, stimulus, outputs)
        if problems:
            METRICS.counter("analysis.replay.mismatches").inc()
            return ReplayResult(
                core, version_index, path.direction, label, path.latency,
                trial + 1, False, "; ".join(problems[:3]),
            )
    METRICS.counter("analysis.replays").inc()
    return ReplayResult(
        core, version_index, path.direction, label, path.latency, trials, True
    )


def replay_refutes(
    circuit,
    path,
    proof: Optional[SliceProof] = None,
    seed: int = 2024,
) -> bool:
    """Confirm a refutation on real hardware.

    True when the declared mode is unrealizable
    (:func:`apply_transparency_path` refuses it), when a claimed-covered
    segment fails to transport -- including segments the path tree
    *claims* but the refuting proof rejected (e.g. arcs absent from the
    circuit's RCG), or when the uncovered root bits cannot be steered to
    both all-zeros and all-ones through the covered terminals.  False
    means the hardware happens to transport anyway (e.g. via a route the
    path tree never claimed) -- the refutation stands statically but is
    not observable in this replay.
    """
    if proof is None:
        proof = prove_path(circuit, path)
    try:
        app = apply_transparency_path(circuit, path)
    except TransparencyError:
        return True
    elab = elaborate(app.circuit)
    rng = random.Random(f"{seed}:refute:{path.direction}:{path.root}")
    stimulus = _random_stimulus(circuit, app, rng)
    outputs = _run_mode(elab, app, stimulus, path.latency)
    if _segment_mismatches(proof, stimulus, outputs):
        return True
    # the tree's own claims, with no admissible-arc restriction: a path
    # leaning on phantom arcs claims transport the hardware can't honor
    declared = prove_path(circuit, path)
    if _segment_mismatches(declared, stimulus, outputs):
        return True
    if proof.direction == "justify" and proof.proved_width < proof.root.width:
        # controllability: can the covered terminals place 0 and ~0 on the
        # whole root slice?  A genuinely narrowed path fails one of them.
        width = proof.root.width
        for target in (0, (1 << width) - 1):
            stimulus = {port.name: (target & 1) * ((1 << port.width) - 1)
                        for port in sorted(circuit.inputs, key=lambda p: p.name)}
            for segment in proof.segments:
                word = stimulus.get(segment.terminal, 0)
                mask = ((1 << segment.width) - 1) << segment.terminal_lo
                wanted = ((target >> (segment.root_lo - proof.root.lo))
                          & ((1 << segment.width) - 1)) << segment.terminal_lo
                stimulus[segment.terminal] = (word & ~mask) | wanted
            outputs = _run_mode(elab, app, stimulus, path.latency)
            observed = _port_word(outputs, proof.root.comp, circuit.get(proof.root.comp).width)
            root_mask = ((1 << width) - 1) << proof.root.lo
            if (observed & root_mask) != ((target << proof.root.lo) & root_mask):
                return True
    return False


def replay_soc(soc, seed: int = 2024, trials: int = 2) -> List[ReplayResult]:
    """Replay every proved path of every version of every testable core.

    Paths are re-proved against arcs extracted from the shipped circuit
    (matching :func:`repro.analysis.certify.certify_soc`), so a path the
    certifier refutes is skipped here rather than reported as a replay
    mismatch.
    """
    from repro.analysis.certify import fresh_known_arcs

    with profile_section("analysis.replay"):
        results: List[ReplayResult] = []
        for core in sorted(soc.testable_cores(), key=lambda c: c.name):
            for version in core.versions:
                known_arcs = fresh_known_arcs(core.circuit, version, core.hscan)
                paths = [
                    version.justify_paths[key]
                    for key in sorted(version.justify_paths)
                ] + [
                    version.propagate_paths[port]
                    for port in sorted(version.propagate_paths)
                ]
                for path in paths:
                    proof = prove_path(core.circuit, path, known_arcs=known_arcs)
                    if not proof.proved:
                        continue
                    results.append(
                        replay_path(
                            core.circuit,
                            path,
                            proof=proof,
                            core=core.name,
                            version_index=version.index,
                            seed=seed,
                            trials=trials,
                        )
                    )
    return results
