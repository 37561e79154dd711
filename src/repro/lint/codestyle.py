"""AST-based determinism lint for the codebase itself.

Plans, counters, and artifacts are pure functions of the seed, and the
plan cache (:class:`repro.soc.plan.PlanCache`) replays side effects
verbatim -- both collapse if library code consults ambient
nondeterminism.  Four rules, enforced in CI over ``src/``:

* **DET001 unseeded-random** -- module-level ``random.*`` calls (the
  shared, unseeded RNG) anywhere in the library; use
  ``random.Random(seed)``.  The same holds for numpy's legacy global
  RNG, ``np.random.<fn>``: only ``default_rng``, ``Generator``,
  ``SeedSequence`` and the bit generators are allowed.
* **DET002 wall-clock** -- ``time.time``/``time.time_ns`` /
  ``datetime.now``-family reads inside planner/optimizer/scheduler
  modules (:data:`WALL_CLOCK_SCOPES`); results there must be pure
  functions of their inputs.  The observability layer is out of scope
  -- measuring wall time is its job.
* **DET003 set-iteration** -- ``for``/comprehension iteration directly
  over a ``set`` display, ``set()``/``frozenset()`` call, or set
  comprehension: Python set order varies across runs (hash
  randomization), so anything feeding ordered output must go through
  ``sorted(...)``.
* **DET004 items-iteration** -- ``for``/comprehension iteration
  directly over ``*.items()``/``*.keys()``/``*.values()`` inside the
  proof emitters and artifact builders (:data:`ITEMS_ORDER_SCOPES`,
  currently ``repro/analysis`` and ``repro/obs/attrib``): certificates
  and attribution artifacts must serialize byte-identically across
  machines, and while dicts preserve *insertion* order, that order is
  whatever construction happened to produce -- iterate ``sorted(...)``
  so the artifact order is canonical by key.

Run it as ``python -m repro.lint.codestyle [paths...]`` (default:
``src``); exit code 1 when issues are found, 0 when clean.
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

#: path fragments whose modules may not read wall clocks (DET002)
WALL_CLOCK_SCOPES = (
    "repro/soc",
    "repro/schedule",
    "repro/transparency",
    "repro/flow",
    "repro/obs/attrib",
)

#: path fragments whose modules must iterate mappings in sorted order (DET004)
ITEMS_ORDER_SCOPES = (
    "repro/analysis",
    "repro/obs/attrib",
)

#: ``random`` module attributes that are safe (seeded constructors etc.)
_SAFE_RANDOM_ATTRS = {"Random", "SystemRandom"}

#: ``numpy.random`` attributes that are safe: the seeded ``Generator``
#: API and its bit generators (everything else is the legacy global RNG)
_SAFE_NUMPY_RANDOM_ATTRS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}

#: modules whose aliases the visitor tracks
_TRACKED_MODULES = ("random", "time", "datetime", "numpy", "numpy.random")

#: wall-clock call names per module alias
_TIME_ATTRS = {"time", "time_ns", "localtime", "gmtime"}
_DATETIME_ATTRS = {"now", "utcnow", "today"}


@dataclass(frozen=True)
class StyleIssue:
    """One determinism-rule violation in a source file."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _in_wall_clock_scope(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(scope in normalized for scope in WALL_CLOCK_SCOPES)


def _in_items_order_scope(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(scope in normalized for scope in ITEMS_ORDER_SCOPES)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.check_wall_clock = _in_wall_clock_scope(path)
        self.check_items_order = _in_items_order_scope(path)
        self.issues: List[StyleIssue] = []
        #: local alias -> canonical module (one of _TRACKED_MODULES)
        self._module_aliases: dict = {}
        #: names imported *from* those modules, e.g. randint -> random.randint
        self._from_imports: dict = {}

    # ------------------------------------------------------------------
    def _issue(self, node: ast.AST, code: str, message: str) -> None:
        self.issues.append(
            StyleIssue(self.path, node.lineno, node.col_offset, code, message)
        )

    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            # ``import a.b`` binds ``a``; ``import a.b as x`` binds ``a.b``
            module = alias.name if alias.asname else alias.name.split(".")[0]
            if module in _TRACKED_MODULES:
                self._module_aliases[alias.asname or module] = module
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            root = node.module.split(".")[0]
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        self._module_aliases[alias.asname or "random"] = "numpy.random"
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _SAFE_NUMPY_RANDOM_ATTRS:
                        self._issue(
                            node, "DET001",
                            f"from numpy.random import {alias.name}: numpy's legacy "
                            f"global RNG is unseeded; use numpy.random.default_rng(seed)",
                        )
            elif root == "random":
                for alias in node.names:
                    if alias.name not in _SAFE_RANDOM_ATTRS:
                        self._issue(
                            node, "DET001",
                            f"from random import {alias.name}: module-level RNG is "
                            f"unseeded; use random.Random(seed)",
                        )
            elif root in ("time", "datetime") and self.check_wall_clock:
                flagged = _TIME_ATTRS if root == "time" else _DATETIME_ATTRS | {"datetime", "date"}
                for alias in node.names:
                    if alias.name in flagged:
                        self._from_imports[alias.asname or alias.name] = (
                            f"{root}.{alias.name}"
                        )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name) and func.id in self._from_imports:
            origin = self._from_imports[func.id]
            if self.check_wall_clock and not origin.endswith((".datetime", ".date")):
                self._issue(
                    node, "DET002",
                    f"wall-clock read {origin}() in planner code; "
                    f"results must be pure functions of their inputs",
                )
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and self._module_aliases.get(base.value.id) == "numpy"
            and base.attr == "random"
        ) or (
            isinstance(base, ast.Name) and self._module_aliases.get(base.id) == "numpy.random"
        ):
            if func.attr not in _SAFE_NUMPY_RANDOM_ATTRS:
                self._issue(
                    node, "DET001",
                    f"np.random.{func.attr}() uses numpy's legacy global RNG; "
                    f"draw from numpy.random.default_rng(seed) instead",
                )
            return
        if not isinstance(base, ast.Name):
            # datetime.datetime.now(...) / datetime.date.today(...)
            if (
                self.check_wall_clock
                and isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and self._module_aliases.get(base.value.id) == "datetime"
                and base.attr in ("datetime", "date")
                and func.attr in _DATETIME_ATTRS
            ):
                self._issue(
                    node, "DET002",
                    f"wall-clock read datetime.{base.attr}.{func.attr}() in planner code",
                )
            return
        origin = self._from_imports.get(base.id)
        if (
            origin in ("datetime.datetime", "datetime.date")
            and self.check_wall_clock
            and func.attr in _DATETIME_ATTRS
        ):
            self._issue(
                node, "DET002",
                f"wall-clock read {origin}.{func.attr}() in planner code",
            )
            return
        module = self._module_aliases.get(base.id)
        if module == "random" and func.attr not in _SAFE_RANDOM_ATTRS:
            self._issue(
                node, "DET001",
                f"random.{func.attr}() uses the shared unseeded RNG; "
                f"construct random.Random(seed) instead",
            )
        elif module == "time" and self.check_wall_clock and func.attr in _TIME_ATTRS:
            self._issue(
                node, "DET002",
                f"wall-clock read time.{func.attr}() in planner code; "
                f"results must be pure functions of their inputs",
            )
        elif (
            module == "datetime"
            and self.check_wall_clock
            and func.attr in _DATETIME_ATTRS
        ):
            self._issue(
                node, "DET002",
                f"wall-clock read datetime.{func.attr}() in planner code",
            )

    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators) -> None:
        for generator in generators:
            self._check_iteration(generator.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def _check_iteration(self, iterable: ast.expr) -> None:
        direct_set = isinstance(iterable, (ast.Set, ast.SetComp)) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if direct_set:
            self._issue(
                iterable, "DET003",
                "iteration over a set has hash-randomized order; wrap in sorted() "
                "when the result feeds ordered output",
            )
        if (
            self.check_items_order
            and isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in ("items", "keys", "values")
            and not iterable.args
            and not iterable.keywords
        ):
            self._issue(
                iterable, "DET004",
                f"iteration over .{iterable.func.attr}() follows insertion "
                f"order, which is not canonical; certificate emitters must "
                f"iterate sorted(...) so artifacts are byte-stable",
            )


# ----------------------------------------------------------------------
def check_source(source: str, path: str = "<string>") -> List[StyleIssue]:
    """Lint one source string; ``path`` scopes the wall-clock rule."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            StyleIssue(path, error.lineno or 0, error.offset or 0,
                       "DET000", f"syntax error: {error.msg}")
        ]
    visitor = _DeterminismVisitor(path)
    visitor.visit(tree)
    return sorted(visitor.issues, key=lambda i: (i.path, i.line, i.col, i.code))


def check_file(path: str) -> List[StyleIssue]:
    with open(path, "r", encoding="utf-8") as handle:
        return check_source(handle.read(), path)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    for root in paths:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: lint the given paths (default ``src``); exit 1 on findings.

    A path that does not exist exits 2: a mistyped path would otherwise
    lint nothing and pass.
    """
    paths = list(argv) if argv else ["src"]
    for path in paths:
        if not os.path.exists(path):
            print(f"repro.lint.codestyle: {path!r} does not exist", file=sys.stderr)
            return 2
    issues: List[StyleIssue] = []
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        issues.extend(check_file(path))
    for issue in issues:
        print(issue)
    label = "issue" if len(issues) == 1 else "issues"
    print(f"repro.lint.codestyle: {checked} files, {len(issues)} {label}",
          file=sys.stderr)
    return 1 if issues else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
