"""Prometheus-style text exposition for the metrics registry.

:func:`render_exposition` turns a :meth:`MetricsRegistry.snapshot`
into the Prometheus text format (version 0.0.4): counters and gauges
as single samples, histograms as *summary* metrics with ``quantile``
labels plus ``_sum``/``_count`` series.  No client library is
involved -- the format is line-oriented text, generated directly.

Dotted instrument names are mapped to the Prometheus grammar by
prefixing ``repro_`` and replacing every non-alphanumeric character
with ``_`` (``exec.cache.hits`` → ``repro_exec_cache_hits``); the
original dotted name is preserved in the ``# HELP`` line so the
mapping is reversible by eye.

An empty histogram renders as its well-defined empty summary: a
``_count 0`` and ``_sum 0.0`` sample with no quantile lines (a
quantile of nothing is not a number, so it is not a sample).

:func:`parse_exposition` is the matching validator/reader: it checks
the text parses line-by-line and returns the samples.  ``python -m
repro.obs.expo FILE`` validates an exposition file from the shell.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, Optional, Tuple

#: every exposed series name starts with this
PREFIX = "repro_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')

#: summary quantiles exposed per histogram (label value, summary key)
QUANTILES: Tuple[Tuple[str, str], ...] = (
    ("0.5", "p50"),
    ("0.9", "p90"),
    ("0.99", "p99"),
)


class ExpositionError(ValueError):
    """Raised by :func:`parse_exposition` on text that does not parse."""


def metric_name(name: str) -> str:
    """Map a dotted instrument name to a Prometheus series name."""
    return PREFIX + _NAME_RE.sub("_", name)


def _format_value(value) -> str:
    if isinstance(value, bool):  # bool is an int; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_exposition(snapshot: Dict) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    ``snapshot`` is :meth:`repro.obs.MetricsRegistry.snapshot` output
    (or any dict with the same ``counters``/``gauges``/``histograms``
    shape, e.g. one reconstructed from a ledger record).
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        series = metric_name(name)
        lines.append(f"# HELP {series} counter {name}")
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        if value is None:
            continue
        series = metric_name(name)
        lines.append(f"# HELP {series} gauge {name}")
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {_format_value(value)}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        series = metric_name(name)
        lines.append(f"# HELP {series} histogram {name}")
        lines.append(f"# TYPE {series} summary")
        for quantile, key in QUANTILES:
            value = summary.get(key)
            if value is None:  # empty histogram: no quantile samples
                continue
            lines.append(f'{series}{{quantile="{quantile}"}} {_format_value(value)}')
        lines.append(f"{series}_sum {_format_value(summary.get('sum', 0.0))}")
        lines.append(f"{series}_count {_format_value(summary.get('count', 0))}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, Dict]:
    """Parse exposition text back into series.

    Returns ``{series_name: {"type": str|None, "help": str|None,
    "samples": [(labels, value), ...]}}``; raises
    :class:`ExpositionError` on any line that does not fit the format.
    ``_sum``/``_count`` samples of a summary fold into the base series.
    """
    series: Dict[str, Dict] = {}

    def entry(name: str) -> Dict:
        return series.setdefault(
            name, {"type": None, "help": None, "samples": []}
        )

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ExpositionError(f"line {lineno}: malformed HELP: {line!r}")
            entry(parts[2])["help"] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[3].split()[0] not in (
                "counter",
                "gauge",
                "summary",
                "histogram",
                "untyped",
            ):
                raise ExpositionError(f"line {lineno}: malformed TYPE: {line!r}")
            entry(parts[2])["type"] = parts[3].split()[0]
            continue
        if line.startswith("#"):
            continue  # comment
        match = _LINE_RE.match(line)
        if not match:
            raise ExpositionError(f"line {lineno}: malformed sample: {line!r}")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in raw_labels.split(","):
                label = _LABEL_RE.match(pair.strip())
                if not label:
                    raise ExpositionError(
                        f"line {lineno}: malformed label {pair!r}"
                    )
                labels[label.group("key")] = label.group("value")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ExpositionError(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            ) from None
        name = match.group("name")
        base = name
        for suffix in ("_sum", "_count"):
            trimmed = name[: -len(suffix)]
            if name.endswith(suffix) and trimmed in series:
                base = trimmed
                labels = dict(labels, __series__=suffix.lstrip("_"))
                break
        entry(base)["samples"].append((labels, value))
    return series


def summary_from_series(parsed: Dict[str, Dict], dotted_name: str) -> Optional[Dict]:
    """Reconstruct a histogram summary from parsed exposition series.

    Returns ``{"count", "sum", "p50", "p90", "p99"}`` (quantiles
    ``None`` when absent) or ``None`` when the series is not exposed.
    """
    series = parsed.get(metric_name(dotted_name))
    if series is None:
        return None
    summary: Dict = {"count": 0, "sum": 0.0, "p50": None, "p90": None, "p99": None}
    for labels, value in series["samples"]:
        if labels.get("__series__") == "count":
            summary["count"] = int(value)
        elif labels.get("__series__") == "sum":
            summary["sum"] = value
        else:
            for quantile, key in QUANTILES:
                if labels.get("quantile") == quantile:
                    summary[key] = value
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    """Validate exposition files: ``python -m repro.obs.expo FILE...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.expo FILE [FILE...]", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        try:
            with open(path) as handle:
                parsed = parse_exposition(handle.read())
        except (OSError, ExpositionError) as error:
            print(f"{path}: INVALID: {error}")
            status = 1
            continue
        samples = sum(len(entry["samples"]) for entry in parsed.values())
        print(f"{path}: OK ({len(parsed)} series, {samples} samples)")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
