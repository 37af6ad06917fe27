"""Command-line front end.

Exit codes: 0 success; 1 invalid model (check/props) or unsatisfied search
constraint; 2 I/O, parse or usage errors; 3 a theorem-level check failed
(a defect in the deciders or enumerator, kept distinct so CI can tell
math problems from plumbing problems).

One table, ``COMMANDS``, holds the grammar.  ``_parse_plain`` parses plain
invocations from it without argparse; help, usage errors and every other form
fall back to the argparse parser that ``_build_parser`` builds from it.
"""

from __future__ import annotations

import atexit
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace

from . import models, report
from .core import FiniteEffectAlgebra, InvalidModelError, InvariantViolation, derive_order, validate
from .enumeration import ENUMERATION_CAP, SearchConstraint, enumerate_up_to_iso, search
from .properties import PROFILE_FLAGS, atoms
from .theorems import CHECK_IDS, run_exhaustive

WITNESS_NAMES = ("ex34", "ex36-meet", "ex36-sup", "ex38", "ex39")

ENUMERATE_PLAIN_LIMIT = 6  # orders 7..10 take up to about 1 s of CPU time; they sit behind --big


def _build_parser():
    import argparse  # here: plain invocations are parsed by _parse_plain, without it

    parser = argparse.ArgumentParser(
        prog="effalg",
        description="finite effect algebras: validation, properties, enumeration, witnesses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, for a command,
    option strings spelled in full, non-empty values with no space and no leading
    "-", and one contiguous run of positionals; None for any other form (help,
    abbreviations, ``--opt=value``, ``--``, invalid or missing values)."""
    if not argv or argv[0] not in COMMANDS or any(not t or " " in t for t in argv):
        return None
    _, func, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals, required = {}, [], set()
    for flags, kw in arguments:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], kw))
            continue
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        values[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
        options.update(dict.fromkeys(flags, (dest, kw)))
        if kw.get("required"):
            required.add(dest)
    run, closed, i = [], False, 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if closed:  # argparse fills positionals from the first run only
                return None
            run.append(token)
            continue
        if token not in options:
            return None
        closed = bool(run)
        dest, kw = options[token]
        required.discard(dest)
        if kw.get("action") == "store_true":
            values[dest] = True
            continue
        end = i + 1
        if kw.get("nargs") == "+":  # every value up to the next option
            while end < len(argv) and not argv[end].startswith("-"):
                end += 1
        got = _convert(kw, argv[i:end])
        if not got or argv[i].startswith("-"):
            return None
        values[dest] = values[dest] + got if kw.get("nargs") else got[0]
        i = end
    star = bool(positionals) and positionals[-1][1].get("nargs") == "*"
    fixed = len(positionals) - star
    if required or len(run) < fixed or (len(run) > fixed and not star):
        return None
    for j, (dest, kw) in enumerate(positionals):
        got = _convert(kw, run[j:] if j == fixed else run[j:j + 1])
        if got is None:
            return None
        values[dest] = got if j == fixed else got[0]
    return SimpleNamespace(**values)


def _convert(kw: dict, tokens: list[str]) -> list | None:
    """The tokens converted by type and checked by choices; None where argparse rejects one."""
    try:
        got = [kw.get("type", str)(t) for t in tokens]
    except ValueError:
        return None
    choices = kw.get("choices")
    return None if choices is not None and any(g not in choices for g in got) else got


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal theorem-check failure: {exc}", file=sys.stderr)
        return 3
    except InvalidModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # EfaParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """Entry point of ``effalg`` and ``python -m effalg``.  It ends as the
    interpreter would (exit handlers, a flush of stdout and stderr, code 120 if
    that fails) without the module teardown, 6-9 ms of CPU.  Under a trace or
    profile function, a ``sys.monitoring`` tool or ``-i`` it calls ``sys.exit``."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from 3.12
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect or (
            monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if not getattr(stream, "closed", True):  # None or closed: nothing to flush
                stream.flush()
        except Exception as exc:  # any failure, as at the interpreter's own exit
            code = 120
            if stream is sys.stdout:  # the interpreter's report of a lost stdout
                print(f"Exception ignored in: {stream!r}\n{type(exc).__name__}: {exc}", file=sys.stderr)
    os._exit(code)


# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    alg = models.load(args.file)
    rep = validate(alg)
    if rep.valid:
        print(f"{args.file}: valid effect algebra with {alg.size} elements "
              f"(unit: {alg.label(alg.one)})")
        return 0
    print(f"{args.file}: NOT an effect algebra ({len(rep.violations)} violations)")
    for v in rep.violations:
        print(f"  {v.axiom}: {v.message}")
    return 1


def cmd_props(args) -> int:
    alg = models.load(args.file)
    doc = report.build_report(alg)
    if args.json:
        print(report.dumps_report(doc), end="")
    else:
        _print_props_text(alg, doc)
    if not doc["valid"]:
        return 1
    failed = [cid for cid, entry in doc["theorems"].items() if entry["status"] == "fail"]
    if failed:
        print(f"internal theorem-check failure: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def _print_props_text(alg: FiniteEffectAlgebra, doc: dict) -> None:
    print(f"model: {doc['model']['name'] or '(unnamed)'}  (size {doc['model']['size']})")
    if not doc["valid"]:
        print("valid: no")
        for v in doc["violations"]:
            print(f"  {v['axiom']}: {v['message']}")
        return
    print("valid: yes")
    for name in PROFILE_FLAGS:
        print(f"  {name:<22} {str(doc['profile'][name]).lower()}")
    print(f"  atoms ({len(doc['profile']['atoms'])}): {', '.join(doc['profile']['atoms'])}")
    print("theorem checks:")
    for cid in CHECK_IDS:
        print(f"  {cid:<38} {doc['theorems'][cid]['status']}")


def cover_pairs(alg: FiniteEffectAlgebra) -> list[tuple[int, int]]:
    """The cover relation (transitive reduction) of the induced order."""
    return [(a, b) for a, covers in enumerate(derive_order(alg).index.covers) for b in covers]


def hasse_dot(alg: FiniteEffectAlgebra) -> str:
    ats = set(atoms(alg))
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=ellipse, fontname="Helvetica"];']
    for i in range(alg.size):
        style = ', style=filled, fillcolor="lightblue"' if i in ats else ""
        label = alg.label(i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"{style}];')
    for a, b in cover_pairs(alg):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_hasse(args) -> int:
    alg = models.load(args.file)
    rep = validate(alg)
    if not rep.valid:
        print(f"{args.file}: not a valid effect algebra; no diagram", file=sys.stderr)
        return 1
    Path(args.output).write_text(hasse_dot(alg), encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def cmd_example(args) -> int:
    if args.params:
        if args.name == "horizontal_sum":
            recipe = f"horizontal_sum({','.join(args.params)})"
        elif len(args.params) == 1:
            recipe = f"{args.name}:{args.params[0]}"
        else:
            raise ValueError(f"family {args.name!r} takes one parameter")
    else:
        recipe = args.name
    alg = models.parse_recipe(recipe)
    models.save(alg, args.output)
    print(f"wrote {args.output} ({alg.name}, {alg.size} elements)")
    return 0


def cmd_enumerate(args) -> int:
    if not 2 <= args.max_size <= ENUMERATION_CAP:
        raise ValueError(f"--max-size must lie in 2..{ENUMERATION_CAP}")
    if args.max_size > ENUMERATE_PLAIN_LIMIT and not args.big:
        raise ValueError(
            f"orders above {ENUMERATE_PLAIN_LIMIT} take up to about 1 s of CPU time "
            f"(order {ENUMERATION_CAP}); pass --big to allow")
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    collected = []
    for size in range(2, args.max_size + 1):
        batch = enumerate_up_to_iso(size)
        print(f"order {size}: {len(batch)} models")
        for i, model in enumerate(batch):
            if out_dir is not None:
                models.save(model, out_dir / f"order{size}_{i:03d}.efa")
            collected.append(model)
    if args.verify_theorems:
        summary = run_exhaustive(args.max_size, models=collected,
                                 dump_dir=str(out_dir) if out_dir else ".")
        print(summary.text_table())
        if summary.failures:
            for size, name, cid, _ in summary.failures:
                print(f"theorem check failed on {name} (order {size}): {cid}",
                      file=sys.stderr)
            return 3
    return 0


def cmd_search(args) -> int:
    constraint = SearchConstraint(frozenset(args.require), frozenset(args.forbid), args.max_size)
    result = search(constraint)
    if result.model is None:
        print("none")
        print(f"# {result.certificate}")
        return 1
    print(f"# {result.certificate}")
    print(models.dumps(result.model), end="")
    return 0


# ---------------------------------------------------------------------------
# witnesses


def cmd_witness(args) -> int:
    # The symbolic families are imported on this path only: no other
    # command uses them, and every invocation pays for module-level imports.
    # Each witness returns (exit code, JSON payload, text lines), and only
    # this function picks the view to print.
    if args.name == "ex38":
        code, payload, lines = _witness_ex38(args.target, args.depth)
    elif args.name == "ex39":
        code, payload, lines = _witness_ex39(args.depth)
    else:
        from .symbolic import blocks, fincof

        # Refutation witnesses: claim, bound-shaped and arbitrary candidate
        # draws, refuter.  Half the candidates (rounded down) are arbitrary
        # elements, drawn after the bounds.
        spec = {
            "ex34": (fincof.CLAIM, fincof.random_upper_bound, fincof.random_element,
                     fincof.refute_upper_bound_candidate),
            "ex36-meet": (blocks.MEET_CLAIM, blocks.random_common_lower_bound,
                          blocks.random_element, blocks.refute_meet_candidate),
            "ex36-sup": (blocks.SUP_CLAIM, blocks.random_b1_upper_bound, blocks.random_element,
                         blocks.refute_singleton_sup_candidate),
        }[args.name]
        if args.candidates < 1:
            raise ValueError("--candidates must be at least 1")
        code, payload, lines = _run_refutations(spec, random.Random(args.seed), args.candidates)
    if args.json:
        doc = report.skeleton(args.name, None)
        doc["witnesses"][args.name] = payload
        print(report.dumps_report(doc), end="")
    else:
        print(*lines, sep="\n")
    return code


def _run_refutations(spec, rng: random.Random, k: int) -> tuple[int, dict, list[str]]:
    claim, draw_bound, draw_element, refuter = spec
    half = k // 2
    candidates = [draw_bound(rng) for _ in range(k - half)] \
        + [draw_element(rng) for _ in range(half)]
    lines = [f"claim: {claim}"]
    entries, kinds = [], {}
    for cand in candidates:
        ref = refuter(cand)
        if not ref.verified:
            print(f"UNVERIFIED defeater for candidate {cand.describe()}", file=sys.stderr)
            return 3, {}, lines
        entries.append({"candidate": cand.describe(), "kind": ref.kind, "detail": ref.detail})
        kinds[ref.kind] = kinds.get(ref.kind, 0) + 1
        lines.append(f"  candidate {cand.describe()}: [{ref.kind}] {ref.detail}")
    lines.append(f"refuted {len(entries)}/{len(entries)} candidates; every defeater re-verified")
    payload = {"claim": claim, "candidates": len(entries), "refuted": len(entries),
               "by_kind": kinds, "refutations": entries}
    return 0, payload, lines


def _witness_ex38(target: int, depth: int) -> tuple[int, dict, list[str]]:
    from .symbolic import extended_chain

    rep = extended_chain.not_orthoatomistic_report(target, depth)
    payload = {
        "claim": f"{rep.target.describe()} is not a sum of atoms",
        "depth": rep.depth,
        "atoms": [a.describe() for a in rep.atoms],
        "reachable_by_atom_sums": [e.describe() for e in rep.reachable],
        "target_reachable": rep.target_reachable,
        "decreasing_upper_bound_chain": [e.describe() for e in rep.decreasing_chain],
        "chain_strictly_decreasing": rep.chain_strictly_decreasing,
        "chain_all_upper_bounds": rep.chain_all_upper_bounds,
        "no_natural_upper_bound": rep.no_natural_upper_bound,
    }
    lines = [
        f"claim: {payload['claim']}",
        f"atoms: {', '.join(payload['atoms'])}",
        f"atom-multiset sums up to depth {rep.depth}: "
        + ", ".join(payload["reachable_by_atom_sums"]),
        f"target {rep.target.describe()}: "
        f"{'REACHED (defect!)' if rep.target_reachable else 'unreachable'}",
        "upper bounds of all naturals form a strictly decreasing chain: "
        + " > ".join(payload["decreasing_upper_bound_chain"][:6]) + " > …",
        f"  strictly decreasing to depth {rep.depth}: {rep.chain_strictly_decreasing}",
        f"  each bound dominates every natural to depth {rep.depth}: {rep.chain_all_upper_bounds}",
        f"  no natural is an upper bound: {rep.no_natural_upper_bound}",
        "conclusion: no minimal upper bound; infinite atom systems have no sum; "
        "weak orthocompleteness is untouched",
    ]
    if not rep.claim_holds:
        print("internal theorem-check failure in the chain report", file=sys.stderr)
    return 0 if rep.claim_holds else 3, payload, lines


def _witness_ex39(depth: int) -> tuple[int, dict, list[str]]:
    from .symbolic import balanced

    analysis = balanced.two_minimal_upper_bounds(depth)
    payload = {
        "upper_bounds": [u.describe() for u in analysis.upper_bounds],
        "minimal_upper_bounds": [u.describe() for u in analysis.minimal_upper_bounds],
        "incomparable": analysis.incomparable,
        "supremum": analysis.supremum.describe() if analysis.supremum else None,
        "weakly_orthocomplete_violated": analysis.weakly_orthocomplete_violated,
    }
    lines = [
        "orthogonal system: the pairs {x_i, y_(i+1)} for i >= 1",
        f"upper bounds ({len(payload['upper_bounds'])}):",
        *(f"  {u}" for u in payload["upper_bounds"]),
        f"minimal upper bounds ({len(payload['minimal_upper_bounds'])}): "
        + ", ".join(payload["minimal_upper_bounds"]),
        f"incomparable: {'yes' if analysis.incomparable else 'no'}",
        f"supremum: {payload['supremum'] or 'none'}",
    ]
    if analysis.weakly_orthocomplete_violated:
        lines.append("weak orthocompleteness fails: "
                     "minimal upper bounds exist but the sum does not")
    # two_minimal_upper_bounds itself refuses any count but 3 bounds, 2 minimal
    holds = analysis.incomparable and analysis.supremum is None
    if not holds:
        print("internal theorem-check failure in the upper-bound analysis", file=sys.stderr)
    return 0 if holds else 3, payload, lines


# ---------------------------------------------------------------------------
# The command grammar, read by _build_parser and _parse_plain:
# name -> (help, handler, ((flags, add_argument keywords), ...)).

COMMANDS = {
    "check": ("validate the axioms of an .efa file", cmd_check, ((("file",), {}),)),
    "props": ("decide every structural property of a model", cmd_props, (
        (("file",), {}),
        (("--json",), {"action": "store_true", "help": "emit the JSON report"}))),
    "hasse": ("export the order diagram (cover relation) as DOT", cmd_hasse, (
        (("file",), {}),
        (("-o", "--output"), {"required": True}))),
    "example": ("write a built-in model to an .efa file", cmd_example, (
        (("name",), {"help": "family name or full recipe, e.g. chain, boolean:3"}),
        (("params",), {"nargs": "*", "help": "family parameters (e.g. 5, or operand recipes)"}),
        (("-o", "--output"), {"required": True}))),
    "enumerate": ("generate all models up to isomorphism", cmd_enumerate, (
        (("--max-size",), {"type": int, "required": True}),
        (("--out",), {"help": "directory for the generated .efa files"}),
        (("--verify-theorems",), {"action": "store_true"}),
        (("--big",), {"action": "store_true",
                      "help": f"allow orders above {ENUMERATE_PLAIN_LIMIT} "
                              f"(up to about 1 s of CPU time, at order {ENUMERATION_CAP})"}))),
    "search": ("hunt for a model with a property profile", cmd_search, (
        (("--require",), {"nargs": "+", "action": "extend", "default": [], "metavar": "PROP"}),
        (("--forbid",), {"nargs": "+", "action": "extend", "default": [], "metavar": "PROP"}),
        (("--max-size",), {"type": int, "required": True}))),
    "witness": ("run an infinite-family claim checker", cmd_witness, (
        (("name",), {"choices": WITNESS_NAMES}),
        (("--depth",), {"type": int, "default": 20}),
        (("--candidates",), {"type": int, "default": 100}),
        (("--seed",), {"type": int, "default": 20250809}),
        (("--target",), {"type": int, "default": 5,
                         "help": "ex38: which primed element to certify"}),
        (("--json",), {"action": "store_true", "help": "emit the JSON report"}))),
}

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
