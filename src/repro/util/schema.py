"""One checker for the JSON artifacts the program writes.

Each artifact kind declares its *shape* once, as data beside the code
that writes it: ``CERTIFICATE_SHAPE`` in :mod:`repro.analysis.certify`,
``RECORD_SHAPE`` in :mod:`repro.obs.ledger` and ``ARTIFACT_SHAPE`` in
:mod:`repro.obs.attrib`.  A shape is one of

* :data:`ANY` (``None``): any value;
* a *check*: a function of one value that returns ``None`` when the
  value passes and the problem otherwise -- the constants below, or one
  made by :func:`leaf`, :func:`one_of` or :func:`version`;
* an :class:`Object`: required and optional fields, each with its own
  shape, and one shape for any other field;
* a :class:`ListOf`: one shape for every item.

Conditions that span fields are *rules*, small functions attached to
the :class:`Object` or :class:`ListOf` they check.  A rule sees its value
only once everything beneath it conforms, so it may index freely; it
yields ``(relative path, message)`` pairs.

:func:`check` walks a shape over a decoded JSON value and returns every
problem with its JSON path (``$.routes[0]: must be an object, got
null``).  It uses the standard library alone, because every import of
the flow loads the ledger, and the ledger loads this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

#: a check on one value: ``None`` when it passes, else what is wrong
Check = Callable[[Any], Optional[str]]
#: a condition spanning fields: one ``(relative path, message)`` per breach
Rule = Callable[[Any], Iterable[Tuple[str, str]]]


@dataclass(frozen=True)
class Object:
    """A JSON object: every ``fields`` name is present, an ``optional``
    name may be, and any other field matches ``extra``."""

    fields: Dict[str, "Shape"]
    optional: Dict[str, "Shape"] = field(default_factory=dict)
    extra: "Shape" = None
    rules: Tuple[Rule, ...] = ()


@dataclass(frozen=True)
class ListOf:
    """A JSON array whose every item matches ``item``."""

    item: "Shape"
    nonempty: bool = False
    rules: Tuple[Rule, ...] = ()


Shape = Union[None, Check, Object, ListOf]

#: the shape of a field that only has to be present
ANY: Shape = None


def check(shape: Shape, value: Any) -> List[str]:
    """Every problem of ``value`` against ``shape``; empty when it conforms."""
    problems: List[str] = []
    _walk(shape, value, "$", problems)
    return problems


def _walk(shape: Shape, value: Any, path: str, problems: List[str]) -> None:
    if shape is None:
        return
    before = len(problems)
    if isinstance(shape, Object):
        if not isinstance(value, dict):
            problems.append(f"{path}: must be an object, got {_show(value)}")
            return
        for name, inner in shape.fields.items():
            if name not in value:
                problems.append(f"{_child(path, name)}: missing")
            elif inner is not None:
                _walk(inner, value[name], _child(path, name), problems)
        for name, item in value.items():
            inner = shape.optional.get(name, shape.extra)
            if inner is None or name in shape.fields:
                continue
            if isinstance(name, str):
                _walk(inner, item, _child(path, name), problems)
            else:
                problems.append(f"{_child(path, name)}: name must be a string")
    elif isinstance(shape, ListOf):
        if not isinstance(value, list):
            problems.append(f"{path}: must be a list, got {_show(value)}")
            return
        if shape.nonempty and not value:
            problems.append(f"{path}: must not be empty")
        if shape.item is not None:
            for index, item in enumerate(value):
                _walk(shape.item, item, f"{path}[{index}]", problems)
    else:
        problem = shape(value)
        if problem is not None:
            problems.append(f"{path}: {problem}")
        return
    if len(problems) == before:
        for rule in shape.rules:
            problems.extend(f"{path}{where}: {message}" for where, message in rule(value))


def _child(path: str, name: Any) -> str:
    if isinstance(name, str) and name.isidentifier():
        return f"{path}.{name}"
    return f"{path}[{name!r}]"


def _show(value: Any) -> str:
    """A value as a message quotes it: JSON, containers by kind only."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def leaf(wants: str, test: Callable[[Any], bool]) -> Check:
    """The check that ``test(value)`` holds, else ``must be <wants>``."""

    def check_value(value: Any) -> Optional[str]:
        return None if test(value) else f"must be {wants}, got {_show(value)}"

    return check_value


def _is_integer(value: Any) -> bool:
    """An integer, and never a bool (which Python counts as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """An integer or a float, and never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


STRING = leaf("a string", lambda value: isinstance(value, str))
TEXT = leaf("a non-empty string", lambda value: isinstance(value, str) and value != "")
BOOLEAN = leaf("a boolean", lambda value: isinstance(value, bool))
INTEGER = leaf("an integer", _is_integer)
COUNT = leaf("a non-negative integer", lambda value: _is_integer(value) and value >= 0)
POSITIVE = leaf("a positive integer", lambda value: _is_integer(value) and value > 0)
NUMBER = leaf("a number", is_number)


def one_of(*choices: Any) -> Check:
    """The check that a value equals one of ``choices``."""
    named = ", ".join(json.dumps(choice) for choice in choices)
    return leaf(named if len(choices) == 1 else f"one of {named}",
                lambda value: value in choices)


def version(newest: int, oldest: int = 1) -> Check:
    """The check that a schema version is one this checker reads:
    ``oldest`` to ``newest``."""
    reads = f"v{newest}" if oldest == newest else f"v{oldest} to v{newest}"

    def check_value(value: Any) -> Optional[str]:
        if not _is_integer(value) or value < 1:
            return f"must be a positive integer, got {_show(value)}"
        if value > newest:
            return f"v{value} is newer than this checker reads ({reads})"
        if value < oldest:
            return f"v{value} is no longer read (this checker reads {reads})"
        return None

    return check_value
