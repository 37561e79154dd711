"""A core: RTL + HSCAN plan + transparency versions + precomputed tests.

This is the artifact the paper says the core provider ships: the DFT'd
design, its available transparency versions with their latency/area
trade-offs, and the test set size (the user only needs the vector count
to plan chip-level testing; the vectors themselves are replayed during
evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from repro.dft.hscan import HscanResult, insert_hscan
from repro.dft.tat import hscan_vector_count
from repro.errors import SocError
from repro.rtl.circuit import RTLCircuit
from repro.rtl.types import Slice
from repro.transparency.versions import CoreVersion, generate_versions


@dataclass
class Core:
    """One embedded core of the SOC."""

    name: str
    circuit: RTLCircuit
    #: HSCAN plan (None for memory cores, which are BIST-tested)
    hscan: Optional[HscanResult]
    versions: List[CoreVersion]
    #: number of combinational (full-scan) test vectors for 100% efficiency
    test_vectors: int
    is_memory: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(
        cls,
        circuit: RTLCircuit,
        test_vectors: int,
        is_memory: bool = False,
    ) -> "Core":
        """Prepare a core: HSCAN insertion and transparency versions.

        ``test_vectors`` is the size of the core's precomputed test set.
        Memory cores get no scan/transparency preparation -- they are
        BIST-tested.
        """
        if is_memory:
            return cls(
                name=circuit.name,
                circuit=circuit,
                hscan=None,
                versions=[],
                test_vectors=test_vectors,
                is_memory=True,
            )
        hscan = insert_hscan(circuit)
        versions = generate_versions(circuit, hscan)
        return cls(
            name=circuit.name,
            circuit=circuit,
            hscan=hscan,
            versions=versions,
            test_vectors=test_vectors,
            is_memory=is_memory,
        )

    # ------------------------------------------------------------------
    def version(self, index: int) -> CoreVersion:
        try:
            return self.versions[index]
        except IndexError:
            raise SocError(
                f"core {self.name!r} has {len(self.versions)} versions, not {index + 1}"
            ) from None

    @property
    def version_count(self) -> int:
        return len(self.versions)

    @property
    def scan_depth(self) -> int:
        if self.hscan is None:
            return 0
        return self.hscan.depth

    @property
    def hscan_vectors(self) -> int:
        """Scan-cycle count of the precomputed test set."""
        return hscan_vector_count(self.test_vectors, self.scan_depth)

    @property
    def flip_flops(self) -> int:
        return self.circuit.flip_flop_count()

    @property
    def input_bits(self) -> int:
        return self.circuit.input_bit_count()

    def port_width(self, port: str) -> int:
        return self.circuit.get(port).width

    @cached_property
    def output_slices(self) -> List[Slice]:
        """Every output port cut at its incoming-arc boundaries, ports by name.

        The slicing is the core's, not a version's: ``RCG.output_slices``
        skips the arcs a version adds, so every version cuts alike.
        Computed on first use, once: :meth:`repro.soc.Soc.invalidate`
        drops it after an in-place edit.
        """
        rcg = self.versions[0].rcg
        assert rcg is not None
        return [
            piece for output in sorted(rcg.output_names()) for piece in rcg.output_slices(output)
        ]
