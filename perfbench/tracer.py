"""Run one ``effalg`` CLI invocation with a span around each traced function.

Usage: ``python3 tracer.py SPANS_FILE -- CLI_ARGS...`` with the package on
``PYTHONPATH``.  Exits with the CLI's exit code.

The wrappers are installed from outside: after ``effalg.cli`` is imported,
every attribute of every loaded ``effalg.*`` module that is a traced
function is rebound to its wrapper.  Rebinding each module, not only the
defining one, matters because ``cli``, ``report``, ``theorems`` and
``enumeration`` import functions by name.  Names that no longer exist are
skipped, so a function may be inlined or deleted without breaking the
benchmark; its metrics then read 0.

Spans are kept in memory as ``[name, start, end, parent, items]`` and
written as JSON when the invocation ends.  Times are the process's CPU
seconds, so a span does not count the slices in which the benchmark's
calibrator has the vCPU (see ``hostspeed.py``).  ``parent`` is the index of the
enclosing span, or -1.  ``items`` is the length of the returned list for
the functions in ``COUNT_RESULTS``, else ``None``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import process_time

TRACED = {
    "models": ("load",),
    "core": ("validate", "derive_order", "supremum", "infimum", "minimal_upper_bounds",
             "require_valid"),
    "properties": ("classify", "atoms", "is_principal", "isotropic_index", "is_archimedean",
                   "is_atomic", "is_atomistic", "is_orthoatomistic", "is_orthoatomistic_sets",
                   "is_disjunctive", "is_orthocomplete", "is_weakly_orthocomplete", "profile"),
    "theorems": ("run_all", "run_exhaustive"),
    "report": ("build_report", "dumps_report"),
    "enumeration": ("enumerate_up_to_iso", "canonicalize", "canonical_form", "search"),
    "cli": ("main",),
}

# Classes returned by the stratum search: the useful outcomes that
# canonicalize calls are divided by.
COUNT_RESULTS = frozenset({"enumeration.enumerate_up_to_iso"})

ROOT = "cli.main"


def _wrap(label: str, fn, spans: list, stack: list):
    count_items = label in COUNT_RESULTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        span[1] = process_time()
        try:
            result = fn(*args, **kwargs)
            if count_items:
                span[4] = len(result)
            return result
        finally:
            span[2] = process_time()
            stack.pop()

    return wrapper


def install(spans: list) -> None:
    """Rebind every traced function in every loaded ``effalg`` module."""
    import effalg.cli  # noqa: F401  loads every module the CLI uses

    loaded = [m for name, m in sys.modules.items()
              if m is not None and (name == "effalg" or name.startswith("effalg."))]
    stack: list[int] = []
    wrappers = {}
    for short, names in TRACED.items():
        module = sys.modules.get(f"effalg.{short}")
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, _wrap(f"{short}.{name}", fn, spans, stack))
    for module in loaded:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    spans_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- CLI_ARGS...")
    spans: list = []
    install(spans)
    cli = sys.modules["effalg.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
