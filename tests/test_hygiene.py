"""Every module-level name in the package is read somewhere besides its
definition, and every module of the package and the tests reads what it
imports."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "effalg"


def _module_level_names(path: Path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_no_dead_module_level_names():
    # whole-word occurrences: a name is one \w+ token
    words = Counter(
        word
        for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
        for word in re.findall(r"\w+", p.read_text(encoding="utf-8")))
    dead = [
        f"{path.relative_to(PACKAGE)}:{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _module_level_names(path)
        if words[name] < 2
    ]
    assert not dead, f"defined but never used: {dead}"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:  # names listed in __all__ are re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}:{bound}")
    return unused


def test_no_unused_imports():
    unused = [name for d in (PACKAGE, ROOT / "tests")
              for path in sorted(d.rglob("*.py")) for name in _unused_imports(path)]
    assert not unused, f"imported but never read: {unused}"
