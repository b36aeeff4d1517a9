"""Every name a gl2tors module imports is used in that module, every
top-level function of the package is named somewhere outside its own
def, and the package holds no assert statement."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gl2tors"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = "import os\nfrom math import gcd, isqrt\nprint(gcd(4, 6))\n"
    assert unused_imports(src) == ["isqrt (line 2)", "os (line 1)"]


def names(tree: ast.AST) -> Counter:
    """How often tree names each identifier: as a name, an attribute, an
    imported name or a word of a string literal other than a docstring
    (the benchmark's tracer names its targets in strings)."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_functions(modules: dict[str, str], elsewhere: Counter) -> list[str]:
    """'module.function' for each top-level function of modules (name to
    source) that neither the modules outside its own def nor elsewhere
    name."""
    trees = {m: ast.parse(src) for m, src in modules.items()}
    total = sum((names(t) for t in trees.values()), Counter(elsewhere))
    return sorted(
        f"{m}.{node.name}" for m, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and total[node.name] == names(node)[node.name])


def test_no_unused_functions():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    elsewhere = Counter(re.findall(r"\w+",
                                   (ROOT / "pyproject.toml").read_text()))
    for folder in ("tests", "perfbench"):
        for p in (ROOT / folder).rglob("*.py"):
            elsewhere += names(ast.parse(p.read_text()))
    assert unused_functions(modules, elsewhere) == []


def test_unused_function_is_reported():
    modules = {
        "a": ('def used():\n    """dead() is named only here."""\n'
              "def dead():\n    return dead()\n"
              "def traced():\n    pass\n"
              "def scripted():\n    pass\n"),
        "b": "from a import used\nTARGETS = [('a', 'traced')]\n",
    }
    assert unused_functions(modules, Counter(["scripted"])) == ["a.dead"]


def assert_statements(source: str) -> list[int]:
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise explicitly.
    found = {p.name: assert_statements(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_assert_statement_is_reported():
    src = "x = 1\nassert x\nif x:\n    assert x, 'msg'\n"
    assert assert_statements(src) == [2, 4]
