"""Every public top-level function of folioid has a use outside the tests,
and no module in ``src/folioid`` or ``tests/`` imports a name it never uses.

A public function counts as used when a ``Name``, ``Attribute`` or import
node in ``src/``, ``perfbench/`` or ``tools/`` names it (in its own module,
beyond its definition, too), or when a ``cli.CHECKS`` key does; strings,
docstrings and README mentions do not count.  A function that only tests
call belongs in ``tests/helpers.py``.
Every check report is built by ``report.Worst.report``, so a fix to the
verdict rule reaches every check, and every ``max`` reduction passes
``initial=``, so an empty array cannot raise where a sup-norm is 0.0.
"""

import ast
from pathlib import Path

from folioid import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "folioid"

# public functions kept with no caller, and where they are documented
DOCUMENTED_ONLY = {
    "fingroupoid.groupoid_from_json": "README.md, section 'Groupoid files'",
}


def public_functions(tree: ast.Module):
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def referenced_names(tree: ast.Module) -> set:
    """Names that a ``Name``, ``Attribute`` or import node of ``tree`` reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_every_public_function_is_used_outside_the_tests():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
             *(ROOT / "tools").rglob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    used = set(cli.CHECKS).union(*(referenced_names(tree) for tree in trees.values()))
    test_only = [f"{path.stem}.{name}" for path, tree in trees.items() if path.parent == PACKAGE
                 for name in public_functions(tree)
                 if name not in used and f"{path.stem}.{name}" not in DOCUMENTED_ONLY]
    assert not test_only, f"public functions only tests call: {test_only}"


def unused_imports(text: str):
    """Names a module imports and never reads as a name, by its AST."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {path.relative_to(ROOT).as_posix(): names for path in paths
              if (names := unused_imports(path.read_text()))}
    assert not unused, f"unused imports: {unused}"


def test_unused_import_scan_flags_a_leftover_and_exempts_future():
    text = ("from __future__ import annotations\n"
            "from dataclasses import dataclass\n"
            "from typing import Iterable, Optional\n"
            "import numpy as np\n"
            "def f(points: Iterable) -> float:\n"
            "    return np.linalg.norm(points)\n")
    assert unused_imports(text) == ["Optional (line 3)", "dataclass (line 2)"]


def test_only_the_report_module_builds_check_reports():
    callers = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "report.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckReport"]
    assert not callers, f"CheckReport built outside report.py: {callers}"


def test_every_max_reduction_passes_initial():
    bare = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("max", "amax")
            and not any(kw.arg == "initial" for kw in node.keywords)]
    assert not bare, f"max reductions without initial=: {bare}"
