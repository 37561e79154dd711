"""Structured lint diagnostics and the report that collects them.

A :class:`Diagnostic` pins one design-rule violation to an artifact
location (``System3/core:DSP/net:acc_q``-style path), carries a stable
rule id, a severity, a human message, and an optional fix hint.  Rule
ids are stable API: tools may filter on them, and CI configs reference
them (see DESIGN.md, "Diagnostic contract").
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class Severity(enum.IntEnum):
    """Diagnostic severity; comparison follows escalation order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            choices = ", ".join(s.label for s in cls)
            raise ValueError(f"unknown severity {text!r}; choose from {choices}") from None


def location(*parts: object) -> str:
    """Join artifact-path parts into a canonical location string.

    ``location("System3", ("core", "dsp"), ("net", "acc_q"))`` yields
    ``System3/core:dsp/net:acc_q``; plain strings pass through unqualified.
    """
    rendered = []
    for part in parts:
        if isinstance(part, tuple):
            rendered.append(":".join(str(p) for p in part))
        else:
            rendered.append(str(part))
    return "/".join(p for p in rendered if p)


@dataclass(frozen=True)
class Diagnostic:
    """One design-rule violation (or advisory note)."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: Optional[str] = None

    def sort_key(self):
        return (-int(self.severity), self.location, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.label,
            "location": self.location,
            "message": self.message,
        }
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    def __str__(self) -> str:
        text = f"{self.severity.label}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


#: version of the JSON schema emitted by :meth:`LintReport.to_dict`
REPORT_SCHEMA_VERSION = 1


@dataclass
class LintReport:
    """All diagnostics from one lint pass, plus what was checked."""

    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    rules_run: int = 0

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def of_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.of_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.of_severity(Severity.WARNING)

    def worst(self) -> Optional[Severity]:
        return max((d.severity for d in self.diagnostics), default=None)

    def has_at_least(self, severity: Severity) -> bool:
        return any(d.severity >= severity for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        totals = {s.label: 0 for s in Severity}
        for diagnostic in self.diagnostics:
            totals[diagnostic.severity.label] += 1
        return totals

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def sorted(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def to_dict(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "target": self.target,
            "rules_run": self.rules_run,
            "summary": counts,
            "clean": counts["error"] == 0,
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable table + summary line."""
        from repro.util import render_table

        counts = self.counts()
        summary = (
            f"{self.target}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info "
            f"({self.rules_run} rules run)"
        )
        if not self.diagnostics:
            return summary
        rows = [
            [d.severity.label, d.rule, d.location, d.message + (f" [{d.hint}]" if d.hint else "")]
            for d in self.sorted()
        ]
        table = render_table(["severity", "rule", "location", "message"], rows)
        return f"{table}\n\n{summary}"
