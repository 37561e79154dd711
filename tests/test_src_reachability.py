"""Every definition in ``src/repro`` is reached by the program: a
top-level function or class, or a method, whose name no code in
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` loads is
either dead or a test helper, and belongs in ``tests/`` or nowhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _sources(directory):
    return sorted((ROOT / directory).rglob("*.py"))


def _loaded_names():
    """Every name read as a variable or attribute anywhere in the program."""
    names = set()
    for directory in PROGRAM_DIRS:
        for path in _sources(directory):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


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
    loaded = _loaded_names()
    found = []
    for path in _sources("src/repro"):
        module = path.relative_to(PACKAGE).as_posix()
        for qualname, exempt in _definitions(path):
            name = qualname.rpartition(".")[2]
            dunder = name.startswith("__") and name.endswith("__")
            if not (exempt or dunder or name in loaded):
                found.append(f"{module}::{qualname}")
    return found


def test_every_definition_in_src_is_reached_by_the_program():
    unreached = _unreached()
    assert not unreached, "defined in src/repro but loaded only by tests: " + ", ".join(
        unreached
    )
