"""Every module-level name in the package is read somewhere besides its definition."""

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
