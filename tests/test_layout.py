"""Layout rules of the package, read from its source with ast."""

import ast
from pathlib import Path

import privcal

SRC = Path(privcal.__file__).parent


def test_every_module_level_definition_is_used_or_exported():
    """src/privcal holds only what the system runs: each module-level
    function or class is named by some module of the package or exported
    by privcal. Independent oracles and test-only helpers live in tests/."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, definitions) and node.name not in named | exported
    )
    assert unused == []


def test_conftest_oracles_import_no_private_library_names():
    """The oracles in tests/conftest.py check the library, so they share
    none of its private helpers: no underscore name is imported from
    privcal. _run_blocks is the one exception. The reference simulators
    must draw exactly what the library draws, so they share its block
    split and per-block seeding on purpose."""
    conftest = Path(__file__).with_name("conftest.py")
    tree = ast.parse(conftest.read_text(encoding="utf-8"))
    private = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "privcal"
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "_run_blocks"
    )
    assert private == []
