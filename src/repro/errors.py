"""Exception hierarchy for the SOCET reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the library's failures with a single ``except`` clause
while still distinguishing structural problems (bad netlists) from
algorithmic ones (no transparency path, infeasible constraints).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """A structural problem in an RTL or gate-level netlist.

    Raised for duplicate names, dangling connections, width mismatches,
    combinational cycles, and similar malformed-design conditions.
    """


class ElaborationError(ReproError):
    """RTL could not be elaborated to gates (unsupported op, bad widths)."""


class SimulationError(ReproError):
    """The logic or fault simulator was driven with inconsistent inputs."""


class AtpgError(ReproError):
    """Test generation failed in a way that is not a normal abort."""


class DftError(ReproError):
    """DFT insertion (scan, boundary scan, HSCAN) failed."""


class TransparencyError(ReproError):
    """No transparency path could be constructed for a core port."""


class SocError(ReproError):
    """Chip-level analysis failed (bad core wiring or SOC construction)."""


class InfeasibleConstraintError(SocError):
    """The optimizer cannot satisfy the user's area/TAT constraint."""


class ScheduleError(SocError):
    """A concurrent test schedule violates a resource or power constraint."""


class BistError(ReproError):
    """Memory BIST configuration or execution problem."""


class UsageError(ReproError):
    """Bad command-line input (unknown system, malformed selection).

    The CLI's ``main`` converts these to a clean ``SystemExit`` with a
    ``repro:``-prefixed message, so library code and subcommands raise
    :class:`UsageError` instead of calling ``SystemExit`` directly.
    """


class ObservabilityError(ReproError):
    """A problem in the metrics/ledger/attribution layer."""


class LedgerSchemaError(ObservabilityError):
    """A run-ledger record or JSONL file (or an unrecognised document)
    violates its schema."""


class AttribSchemaError(ObservabilityError):
    """A search-effort attribution artifact violates the attrib schema."""


class RegressionError(ObservabilityError):
    """The regression observatory could not compare runs (bad inputs)."""
