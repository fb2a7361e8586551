"""The package holds product code only.  Every function, class and method
under src/klsc must be named somewhere outside its own definition:
elsewhere in the package, in a demo, or in perfbench/tracing.py, which
wraps or resolves its targets by name.  Dunders and the names klsc exports
in __all__ are exempt.  A name that only the tests read belongs in
tests/helpers.py.

The scan matches bare names, so a name that some other definition shares
counts as used; it catches what nothing names at all."""

import ast
from pathlib import Path

import klsc

ROOT = Path(__file__).resolve().parent.parent


def _names(tree):
    """(name, line) for every identifier a module reads, imports or spells
    as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def unreferenced():
    """'file:line name' for every definition under src/klsc that nothing
    outside it names."""
    defs, uses = [], []
    for path in sorted((ROOT / "src" / "klsc").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node))
        uses.extend((path.name, name, line) for name, line in _names(tree))
    outside = set(klsc.__all__)
    for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "perfbench" / "tracing.py"]:
        outside.update(name for name, _ in _names(ast.parse(path.read_text())))
    out = []
    for file, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__") or name in outside:
            continue
        if not any(
            used == name and not (f == file and node.lineno <= line <= node.end_lineno)
            for f, used, line in uses
        ):
            out.append(f"{file}:{node.lineno} {name}")
    return out


def test_every_definition_is_named_outside_itself():
    assert unreferenced() == []
