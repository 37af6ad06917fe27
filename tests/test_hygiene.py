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


def _constant_parameters(sources: list[str]) -> list[str]:
    """Parameters of private functions that every call site fills with one
    constant, passed or by default.  A function defined twice under one
    name, read other than by a call, or called with * or ** is skipped."""
    trees = [ast.parse(source) for source in sources]
    params: dict[str, list[tuple[list[str], list[str], dict]]] = {}
    for tree in trees:
        for owner in ast.walk(tree):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") \
                        or fn.name.startswith("__"):
                    continue
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)
                if isinstance(owner, ast.ClassDef):  # self or cls is not passed
                    positional = positional[1:]
                params.setdefault(fn.name, []).append(
                    (positional, [p.arg for p in a.kwonlyargs], defaults))
    calls: dict[str, list[ast.Call]] = {}
    callees, reads = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(node.func)
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
        reads.update(getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute)) and node not in callees)
    found = []
    for name, defs in params.items():
        sites = calls.get(name, [])
        if len(defs) > 1 or name in reads or not sites or any(
                isinstance(arg, ast.Starred) for c in sites for arg in c.args) or any(
                k.arg is None for c in sites for k in c.keywords):
            continue
        positional, kwonly, defaults = defs[0]
        for i, param in enumerate(positional + kwonly):
            values = set()
            for c in sites:
                keywords = {k.arg: k.value for k in c.keywords}
                node = (c.args[i] if i < len(positional) and i < len(c.args)
                        else keywords.get(param, defaults.get(param)))
                values.add(repr(node.value) if isinstance(node, ast.Constant) else None)
            if len(values) == 1 and None not in values:
                found.append(f"{name}({param}={values.pop()})")
    return found


def test_constant_parameter_check_flags_a_fixed_argument():
    source = ("def _f(a, b, *, c=2):\n    return a\n"
              "def g(x):\n    return _f(x, None) + _f(1, None, c=2)\n")
    assert _constant_parameters([source]) == ["_f(b=None)", "_f(c=2)"]


def test_no_private_parameter_is_always_the_same_constant():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))]
    fixed = _constant_parameters(sources)
    assert not fixed, f"private parameters every call site fills with one constant: {fixed}"


def _is_record(node: ast.ClassDef) -> bool:
    """A NamedTuple subclass, or a class decorated with ``dataclass``."""
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return getattr(expr, "id", getattr(expr, "attr", None))
    return (any(name(base) == "NamedTuple" for base in node.bases)
            or any(name(d) == "dataclass" for d in node.decorator_list))


def _unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """Annotated fields of the record classes in ``defining`` that no source
    in ``reading`` loads as an attribute."""
    read = {node.attr for source in reading for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{field.target.id}"
            for source in defining for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) and _is_record(cls)
            for field in cls.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in read]


def test_unread_field_check_flags_a_field_nobody_reads():
    source = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n"
              "@dataclass(frozen=True)\nclass D:\n    kept: int\n    dropped: str\n"
              "class T(NamedTuple):\n    first: int\n    second: int = 0\n"
              "class Plain:\n    unread: int\n"
              "def f(d, t):\n    d.dropped = 1\n    return d.kept + t.first\n")
    assert _unread_fields([source], [source]) == ["D.dropped", "T.second"]


def test_every_record_field_is_read():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))]
    tests = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").rglob("*.py"))]
    unread = _unread_fields(package, package + tests)
    assert not unread, f"record fields never read as an attribute: {unread}"


def _shared_memo_keys(sources: list[str]) -> list[str]:
    """Names of functions decorated with ``per_model`` more than once across
    ``sources``: ``per_model`` keys a fact by its function's name, so two
    such functions would share one memo slot."""
    names = Counter(
        fn.name for source in sources for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(d, "id", getattr(d, "attr", None)) == "per_model"
                for d in fn.decorator_list))
    return sorted(name for name, count in names.items() if count > 1)


def test_shared_memo_key_check_flags_a_repeated_name():
    first = ("@per_model\ndef facts(alg):\n    return 1\n"
             "@per_model\ndef kept(alg):\n    return 2\n")
    second = ("@core.per_model\ndef facts(alg):\n    return 3\n"
              "def kept(alg):\n    return 4\n")
    assert _shared_memo_keys([first, second]) == ["facts"]


def test_no_two_memoised_facts_share_a_key():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))]
    shared = _shared_memo_keys(sources)
    assert not shared, f"per_model facts that would share one memo slot: {shared}"
