"""Differential replay: certified paths versus the gate-level simulator.

The certifier's identity anchor, as a test suite: "proved" must mean
the simulator transports the bits, and "refuted" must be observable as
a transport failure (or an unrealizable mode) on the same hardware.
"""

import random

import pytest

from tests.fixtures import broken_designs as bd
from repro.analysis import (
    certify_core,
    certify_soc,
    prove_path,
    replay_path,
    replay_soc,
)
from repro.analysis.differential import (
    REPLAY_SEED,
    _random_stimulus,
    _run_mode,
    _segment_mismatches,
)
from repro.elaborate import elaborate
from repro.errors import TransparencyError
from repro.gates import SequentialSimulator
from repro.rtl import CircuitBuilder
from repro.soc import Core
from repro.transparency.apply import apply_transparency_path

SYSTEMS = ["System1", "System2", "System3", "System4"]


def build(system):
    from repro.designs import system_builders

    return system_builders()[system]()


def replay(soc):
    """Replay what the system's certificate proved, as ``repro certify --replay`` does."""
    return replay_soc(soc, certify_soc(soc))


def _port_word(outputs, port, width):
    return sum((outputs[f"{port}.{i}"] & 1) << i for i in range(width))


def replay_refutes(circuit, path, proof=None):
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
    sim = SequentialSimulator(elaborate(app.circuit).netlist)
    rng = random.Random(f"{REPLAY_SEED}:refute:{path.direction}:{path.root}")
    stimulus = _random_stimulus(circuit, app, rng)
    outputs = _run_mode(sim, app, stimulus, path.latency)
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
            outputs = _run_mode(sim, app, stimulus, path.latency)
            observed = _port_word(outputs, proof.root.comp, circuit.get(proof.root.comp).width)
            root_mask = ((1 << width) - 1) << proof.root.lo
            if (observed & root_mask) != ((target << proof.root.lo) & root_mask):
                return True
    return False


# ----------------------------------------------------------------------
# every proved path of every system transports on the simulator
# ----------------------------------------------------------------------
class TestSystemsReplay:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_all_proved_paths_transport(self, system):
        results = replay(build(system))
        assert results
        failing = [r for r in results if not r.ok]
        assert failing == []

    def test_replay_covers_every_version(self):
        soc = build("System2")
        results = replay(soc)
        covered = {(r.core, r.version_index) for r in results}
        expected = {
            (core.name, version.index)
            for core in soc.testable_cores()
            for version in core.versions
        }
        assert covered == expected

    def test_replay_is_deterministic(self):
        first = [r.to_dict() for r in replay(build("System2"))]
        second = [r.to_dict() for r in replay(build("System2"))]
        assert first == second

    def test_one_simulator_per_replayed_path(self, monkeypatch):
        from repro.analysis import differential

        built = []

        class Counted(differential.SequentialSimulator):
            def __init__(self, netlist, *args, **kwargs):
                built.append(netlist)
                super().__init__(netlist, *args, **kwargs)

        monkeypatch.setattr(differential, "SequentialSimulator", Counted)
        results = replay(build("System1"))
        assert len(results) == len(built) == 69


# ----------------------------------------------------------------------
# refutations are observable on the same hardware
# ----------------------------------------------------------------------
class TestRefutationsReplay:
    def refuted(self, soc):
        core = soc.cores["A"]
        for record in certify_soc(soc).iter_paths():
            if record.core == "A" and not record.proved:
                yield core, record.path, record.proof

    def test_narrowed_core_fails_on_hardware(self):
        found = list(self.refuted(bd.narrowed_transparency_soc()))
        assert found
        for core, path, proof in found:
            assert replay_refutes(core.circuit, path, proof=proof), str(path.root)

    def test_mux_conflict_unrealizable_on_hardware(self):
        found = list(self.refuted(bd.mux_conflict_soc()))
        assert found
        for core, path, proof in found:
            assert replay_refutes(core.circuit, path, proof=proof), str(path.root)

    def test_unproved_path_is_not_replayed_as_ok(self):
        soc = bd.narrowed_transparency_soc()
        refuted = next(
            record for record in certify_soc(soc).iter_paths()
            if record.version_index == 0 and record.key == ("INHI",)
        )
        assert not refuted.proved
        result = replay_path(soc.cores["A"].circuit, refuted)
        assert not result.ok
        assert (result.trials, result.detail) == (0, "path is not proved")

    def test_replay_soc_skips_refuted_paths(self):
        results = replay(bd.narrowed_transparency_soc())
        assert all(r.ok for r in results)
        ports = {r.port for r in results}
        assert not any("INHI" in port for port in ports)

    def test_replay_skips_a_path_refuted_on_its_select_demands(self):
        """The refuted mux-conflict path proves its slices but not its
        selects: replay reads the certificate's verdict and skips it."""
        soc = bd.mux_conflict_soc()
        certificate = certify_soc(soc)
        refuted = [(p.core, p.version_index, p.direction, p.label)
                   for p in certificate.iter_paths() if not p.proved]
        assert refuted == [("A", 0, "justify", "OUT[7:0]")]
        results = replay_soc(soc, certificate)
        assert len(results) == 7
        assert all(r.ok for r in results)
        assert ("A", 0, "justify", "OUT[7:0]") not in {
            (r.core, r.version_index, r.direction, r.port) for r in results
        }


# ----------------------------------------------------------------------
# property-style: random RCGs certify soundly and replay clean
# ----------------------------------------------------------------------
def random_core(seed):
    """A seeded random register/mux topology, HSCAN'd and versioned."""
    rng = random.Random(f"rcg:{seed}")
    width = rng.choice([4, 8])
    b = CircuitBuilder(f"RND{seed}")
    signals = [b.input(f"I{k}", width) for k in range(rng.randint(1, 3))]
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.5 and len(signals) >= 2:
            sel = b.input(f"S{i}", 1)
            legs = rng.sample(signals, 2)
            driver = b.mux(f"M{i}", legs, sel, width=width)
        else:
            driver = rng.choice(signals)
        reg = b.register(f"R{i}", width)
        b.drive(reg, driver)
        signals.append(reg)
    b.output("OUT", signals[-1])
    return Core.from_circuit(b.build(), test_vectors=4)


class TestRandomCores:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_versions_prove_and_transport(self, seed):
        """Version generation is sound: every declared path is provable
        against the freshly extracted RCG, and every proof replays."""
        core = random_core(seed)
        assert core.versions
        checked = 0
        for version in certify_core(core):
            for proof in version.paths:
                root = proof.path.root
                assert proof.proved, f"seed {seed}: {root}: {proof.problems()}"
                result = replay_path(core.circuit, proof)
                assert result.ok, f"seed {seed}: {root}: {result.detail}"
                checked += 1
        assert checked > 0
