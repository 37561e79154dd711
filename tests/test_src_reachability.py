"""Every definition in ``src/repro`` is reached by the program: a
top-level function or class, or a method, that no code in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` reaches is either dead
or a test helper, and belongs in ``tests/`` or nowhere.

A method is reached only through an attribute load of its name
(``obj.name``) or a string constant naming it (``getattr(obj, "name")``):
a local variable that happens to share its name does not keep it.  A
top-level definition is reached through a name load, an import or an
attribute load (``module.name``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _sources(directory):
    return sorted((ROOT / directory).rglob("*.py"))


def _references():
    """``(names that reach a method, names that reach a top-level
    definition)`` over the whole program."""
    methods, top_level = set(), set()
    for directory in PROGRAM_DIRS:
        for path in _sources(directory):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    methods.add(node.attr)
                    top_level.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    methods.add(node.value)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    top_level.add(node.id)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    top_level.update(alias.name.rpartition(".")[2] for alias in node.names)
    return methods, top_level


def _is_visitor(cls):
    return any(
        (isinstance(base, ast.Attribute) and base.attr == "NodeVisitor")
        or (isinstance(base, ast.Name) and base.id == "NodeVisitor")
        for base in cls.bases
    )


def _definitions(path):
    """``(qualified name, exempt)`` for each top-level def/class and method."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            visitor = _is_visitor(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    hook = visitor and item.name.startswith("visit_")
                    yield f"{node.name}.{item.name}", hook


def _unreached():
    methods, top_level = _references()
    found = []
    for path in _sources("src/repro"):
        module = path.relative_to(PACKAGE).as_posix()
        for qualname, exempt in _definitions(path):
            owner, _, name = qualname.rpartition(".")
            dunder = name.startswith("__") and name.endswith("__")
            reached = methods if owner else top_level
            if not (exempt or dunder or name in reached):
                found.append(f"{module}::{qualname}")
    return found


def test_every_definition_in_src_is_reached_by_the_program():
    unreached = _unreached()
    assert not unreached, "defined in src/repro but loaded only by tests: " + ", ".join(
        unreached
    )
