"""Every public top-level function of folioid has a use outside the tests,
and no module in ``src/folioid`` or ``tests/`` imports a name it never uses.

A public function passes when its name appears elsewhere in
``src/folioid`` (in another module, or in its own beyond its definition),
anywhere in ``perfbench/``, or in ``README.md``, which documents the API.
A function that only tests call belongs in ``tests/helpers.py``.
Every check report is built by ``report.Worst.report``, so a fix to the
verdict rule reaches every check.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "folioid"


def public_functions(text: str):
    return [node.name for node in ast.parse(text).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_function_is_used_outside_the_tests():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = "\n".join([path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
                        + [(ROOT / "README.md").read_text()])
    test_only = []
    for module, text in modules.items():
        for name in public_functions(text):
            word = re.compile(rf"\b{name}\b")
            used = (len(word.findall(text)) > 1
                    or any(word.search(other) for m, other in modules.items() if m != module)
                    or word.search(outside))
            if not used:
                test_only.append(f"{module}.{name}")
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


def test_only_the_report_module_builds_check_reports():
    callers = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "report.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckReport"]
    assert not callers, f"CheckReport built outside report.py: {callers}"
