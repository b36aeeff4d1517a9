"""Every name a gl2tors module imports is used in that module, every
top-level function and module-level constant of the package is named
somewhere outside its own def or assignment and the tests, and the
package holds no assert statement."""

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
    (the benchmark's runner names measured functions in strings)."""
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


def callers(root: Path) -> Counter:
    """The names that count as uses outside the package: the words of
    pyproject.toml (its script entry point) and the names in the
    benchmark's programs. Tests do not count, since a function that only
    tests call is dead code, and neither does the benchmark's tracer,
    which skips a target that is missing."""
    out = Counter(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    for p in (root / "perfbench").rglob("*.py"):
        if p.name != "tracer.py":
            out += names(ast.parse(p.read_text()))
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
    assert unused_functions(modules, callers(ROOT)) == []


def test_unused_function_is_reported(tmp_path):
    modules = {
        "a": ('def used():\n    """dead() is named only here."""\n'
              "def dead():\n    return dead()\n"
              "def named():\n    pass\n"
              "def scripted():\n    pass\n"
              "def benched():\n    pass\n"
              "def tested():\n    pass\n"
              "def traced():\n    pass\n"),
        "b": "from a import used\nTARGETS = [('a', 'named')]\n",
    }
    (tmp_path / "pyproject.toml").write_text('x = "a:scripted"\n')
    for path, text in [("perfbench/client.py", "a.benched()\n"),
                       ("perfbench/tracer.py", "T = [('a', 'traced')]\n"),
                       ("tests/test_a.py", "from a import tested\n")]:
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    assert unused_functions(modules, callers(tmp_path)) == [
        "a.dead", "a.tested", "a.traced"]


def bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level assignment binds, dunders excepted."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def unused_constants(modules: dict[str, str], elsewhere: Counter) -> list[str]:
    """'module.NAME' for each module-level constant of modules (name to
    source) that neither the modules outside its own assignment nor
    elsewhere name."""
    trees = {m: ast.parse(src) for m, src in modules.items()}
    total = sum((names(t) for t in trees.values()), Counter(elsewhere))
    return sorted(
        f"{m}.{name}" for m, tree in trees.items() for node in tree.body
        for name in bound_names(node) if total[name] == names(node)[name])


def test_no_unused_constants():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_constants(modules, callers(ROOT)) == []


def test_unused_constant_is_reported(tmp_path):
    modules = {
        "a": ('__all__ = ["USED"]\nUSED = 1\nDEAD = (1, 2)\n'
              "TYPED: int = 3\nLOCAL = 4\nOTHER = LOCAL + 1\n"
              "A, B = 5, 6\nTESTED = 7\nBENCHED = 8\n"
              'def f():\n    """DEAD is named only here."""\n'
              "    return B\n"),
        "b": "from a import USED\n",
    }
    (tmp_path / "pyproject.toml").write_text("")
    for path, text in [("perfbench/client.py", "a.BENCHED\n"),
                       ("tests/test_a.py", "from a import TESTED\n")]:
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    assert unused_constants(modules, callers(tmp_path)) == [
        "a.A", "a.DEAD", "a.OTHER", "a.TESTED", "a.TYPED"]


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
