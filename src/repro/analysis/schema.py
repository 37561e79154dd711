"""Structural validator for ``repro-certificate`` JSON artifacts.

CI runs ``python -m repro.analysis.schema cert-*.json`` after
``repro certify --json`` to catch schema drift before an artifact is
uploaded.  Exit codes follow the repo convention: 0 all valid, 1 at
least one invalid, 2 usage error (unreadable file / not JSON).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from repro.analysis.certify import CERTIFICATE_KIND, CERTIFICATE_SCHEMA_VERSION

_TOP_KEYS = (
    "kind",
    "schema",
    "system",
    "selection",
    "certified",
    "summary",
    "versions",
    "routes",
    "plan_error",
    "test_muxes",
)
_SUMMARY_KEYS = ("versions", "paths", "proved", "refuted", "routes", "routes_refuted")
_PATH_KEYS = (
    "core",
    "version",
    "version_name",
    "direction",
    "port",
    "status",
    "proof",
    "select_demands",
    "select_conflicts",
    "select_advisories",
    "problems",
)
_ROUTE_KEYS = ("core", "kind", "port", "latency", "via_test_mux", "status", "problems")


def validate_certificate(payload: Dict) -> List[str]:
    """Return every structural problem found (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["certificate must be a JSON object"]
    for key in _TOP_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if payload["kind"] != CERTIFICATE_KIND:
        problems.append(f"kind is {payload['kind']!r}, expected {CERTIFICATE_KIND!r}")
    if payload["schema"] != CERTIFICATE_SCHEMA_VERSION:
        problems.append(
            f"schema is {payload['schema']!r}, expected {CERTIFICATE_SCHEMA_VERSION}"
        )
    summary = payload["summary"]
    if not isinstance(summary, dict):
        problems.append("summary must be an object")
    else:
        for key in _SUMMARY_KEYS:
            if not isinstance(summary.get(key), int):
                problems.append(f"summary.{key} must be an integer")
    paths = 0
    proved = 0
    if not isinstance(payload["versions"], list):
        problems.append("versions must be a list")
    else:
        for position, version in enumerate(payload["versions"]):
            where = f"versions[{position}]"
            if not isinstance(version, dict):
                problems.append(f"{where} must be an object")
                continue
            for key in ("core", "index", "name", "proved", "paths", "missing"):
                if key not in version:
                    problems.append(f"{where} is missing {key!r}")
            missing = version.get("missing", [])
            if not isinstance(missing, list):
                problems.append(f"{where}.missing must be a list")
            elif missing and version.get("proved") is True:
                problems.append(f"{where} is proved but lists missing paths")
            for spot, path in enumerate(version.get("paths", [])):
                paths += 1
                for key in _PATH_KEYS:
                    if key not in path:
                        problems.append(f"{where}.paths[{spot}] is missing {key!r}")
                if path.get("status") == "proved":
                    proved += 1
                    if path.get("problems"):
                        problems.append(
                            f"{where}.paths[{spot}] is proved but lists problems"
                        )
                elif path.get("status") == "refuted":
                    if not path.get("problems"):
                        problems.append(
                            f"{where}.paths[{spot}] is refuted without problems"
                        )
                else:
                    problems.append(
                        f"{where}.paths[{spot}] has unknown status "
                        f"{path.get('status')!r}"
                    )
    if not isinstance(payload["routes"], list):
        problems.append("routes must be a list")
    else:
        for position, route in enumerate(payload["routes"]):
            for key in _ROUTE_KEYS:
                if key not in route:
                    problems.append(f"routes[{position}] is missing {key!r}")
            if route.get("status") not in ("pin", "certified", "refuted"):
                problems.append(
                    f"routes[{position}] has unknown status {route.get('status')!r}"
                )
    if isinstance(summary, dict) and not problems:
        if summary.get("paths") != paths:
            problems.append(
                f"summary.paths is {summary.get('paths')} but {paths} paths listed"
            )
        if summary.get("proved") != proved:
            problems.append(
                f"summary.proved is {summary.get('proved')} but {proved} proved"
            )
        refuted_routes = sum(
            1 for route in payload["routes"] if route.get("status") == "refuted"
        )
        if summary.get("routes_refuted") != refuted_routes:
            problems.append(
                f"summary.routes_refuted is {summary.get('routes_refuted')} "
                f"but {refuted_routes} routes are refuted"
            )
    return problems


def main(argv: List[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    if not names:
        print("usage: python -m repro.analysis.schema CERT.json [...]", file=sys.stderr)
        return 2
    bad = 0
    for name in names:
        try:
            with open(name, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"{name}: cannot load: {error}", file=sys.stderr)
            return 2
        problems = validate_certificate(payload)
        if problems:
            bad += 1
            for problem in problems:
                print(f"{name}: {problem}", file=sys.stderr)
        else:
            summary = payload.get("summary", {})
            print(
                f"{name}: ok ({summary.get('paths', 0)} paths, "
                f"{summary.get('proved', 0)} proved)"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
