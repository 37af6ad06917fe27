"""Command-line front end.

Exit codes: 0 success; 1 invalid model (check/props) or unsatisfied search
constraint; 2 I/O, parse or usage errors; 3 a theorem-level check failed
(a defect in the deciders or enumerator, kept distinct so CI can tell
math problems from plumbing problems).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import models, report
from .core import FiniteEffectAlgebra, InvalidModelError, InvariantViolation, derive_order, validate
from .enumeration import ENUMERATION_CAP, SearchConstraint, enumerate_up_to_iso, search
from .models import EfaParseError
from .properties import PROFILE_FLAGS, atoms, profile
from .theorems import CHECK_IDS, run_exhaustive

WITNESS_NAMES = ("ex34", "ex36-meet", "ex36-sup", "ex38", "ex39")

ENUMERATE_PLAIN_LIMIT = 6  # orders 7..10 take up to about 2 s of CPU time; they sit behind --big


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effalg",
        description="finite effect algebras: validation, properties, enumeration, witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of an .efa file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("props", help="decide every structural property of a model")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("hasse", help="export the order diagram (cover relation) as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("example", help="write a built-in model to an .efa file")
    p.add_argument("name", help="family name or full recipe, e.g. chain, boolean:3")
    p.add_argument("params", nargs="*", help="family parameters (e.g. 5, or operand recipes)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("enumerate", help="generate all models up to isomorphism")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out", help="directory for the generated .efa files")
    p.add_argument("--verify-theorems", action="store_true")
    p.add_argument("--big", action="store_true",
                   help=f"allow orders above {ENUMERATE_PLAIN_LIMIT} "
                        f"(up to about 2 s of CPU time, at order {ENUMERATION_CAP})")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", help="hunt for a model with a property profile")
    p.add_argument("--require", nargs="+", default=[], metavar="PROP")
    p.add_argument("--forbid", nargs="+", default=[], metavar="PROP")
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("witness", help="run an infinite-family claim checker")
    p.add_argument("name", choices=WITNESS_NAMES)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--seed", type=int, default=20250809)
    p.add_argument("--target", type=int, default=5, help="ex38: which primed element to certify")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EfaParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal theorem-check failure: {exc}", file=sys.stderr)
        return 3
    except InvalidModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - setuptools entry point
    sys.exit(main())


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
    order = derive_order(alg)
    return [(a, b) for a in range(alg.size) for b in order.minimal(order.up[a] & ~(1 << a))]


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
            f"orders above {ENUMERATE_PLAIN_LIMIT} take up to about 2 s of CPU time "
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
    text = not args.json
    if args.name == "ex38":
        code, payload = _witness_ex38(args.target, args.depth, text)
    elif args.name == "ex39":
        code, payload = _witness_ex39(args.depth, text)
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
        code, payload = _run_refutations(spec, random.Random(args.seed), args.candidates, text)
    if args.json:
        doc = {
            "model": {"name": args.name, "size": None},
            "valid": True,
            "violations": [],
            "profile": {},
            "witnesses": {args.name: payload},
            "theorems": {},
        }
        print(report.dumps_report(doc), end="")
    return code


def _run_refutations(spec, rng: random.Random, k: int, text: bool) -> tuple[int, dict]:
    claim, draw_bound, draw_element, refuter = spec
    half = k // 2
    candidates = [draw_bound(rng) for _ in range(k - half)] \
        + [draw_element(rng) for _ in range(half)]
    if text:
        print(f"claim: {claim}")
    entries = []
    for cand in candidates:
        ref = refuter(cand)
        if not ref.verified:
            print(f"UNVERIFIED defeater for candidate {cand.describe()}", file=sys.stderr)
            return 3, {}
        entries.append({"candidate": cand.describe(), "kind": ref.kind, "detail": ref.detail})
        if text:
            print(f"  candidate {cand.describe()}: [{ref.kind}] {ref.detail}")
    if text:
        print(f"refuted {len(entries)}/{len(entries)} candidates; every defeater re-verified")
    kinds: dict[str, int] = {}
    for e in entries:
        kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
    payload = {"claim": claim, "candidates": len(entries), "refuted": len(entries),
               "by_kind": kinds, "refutations": entries}
    return 0, payload


def _witness_ex38(target: int, depth: int, text: bool) -> tuple[int, dict]:
    from .symbolic import extended_chain

    rep = extended_chain.not_orthoatomistic_report(target, depth)
    if text:
        print(f"claim: {rep.target.describe()} is not a sum of atoms")
        print(f"atoms: {', '.join(a.describe() for a in rep.atoms)}")
        reach = ", ".join(e.describe() for e in rep.reachable)
        print(f"atom-multiset sums up to depth {rep.depth}: {reach}")
        print(f"target {rep.target.describe()}: "
              f"{'REACHED (defect!)' if rep.target_reachable else 'unreachable'}")
        chain_text = " > ".join(e.describe() for e in rep.decreasing_chain[:6]) + " > …"
        print(f"upper bounds of all naturals form a strictly decreasing chain: {chain_text}")
        print(f"  strictly decreasing to depth {rep.depth}: {rep.chain_strictly_decreasing}")
        print(f"  each bound dominates every natural to depth {rep.depth}: "
              f"{rep.chain_all_upper_bounds}")
        print(f"  no natural is an upper bound: {rep.no_natural_upper_bound}")
        print("conclusion: no minimal upper bound; infinite atom systems have no sum; "
              "weak orthocompleteness is untouched")
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
    if not rep.claim_holds:
        print("internal theorem-check failure in the chain report", file=sys.stderr)
        return 3, payload
    return 0, payload


def _witness_ex39(depth: int, text: bool) -> tuple[int, dict]:
    from .symbolic import balanced

    analysis = balanced.two_minimal_upper_bounds(depth)
    if text:
        print("orthogonal system: the pairs {x_i, y_(i+1)} for i >= 1")
        print(f"upper bounds ({len(analysis.upper_bounds)}):")
        for u in analysis.upper_bounds:
            print(f"  {u.describe()}")
        print(f"minimal upper bounds ({len(analysis.minimal_upper_bounds)}): "
              + ", ".join(u.describe() for u in analysis.minimal_upper_bounds))
        print(f"incomparable: {'yes' if analysis.incomparable else 'no'}")
        print("supremum: " + (analysis.supremum.describe() if analysis.supremum else "none"))
        if analysis.weakly_orthocomplete_violated:
            print("weak orthocompleteness fails: minimal upper bounds exist but the sum does not")
    payload = {
        "upper_bounds": [u.describe() for u in analysis.upper_bounds],
        "minimal_upper_bounds": [u.describe() for u in analysis.minimal_upper_bounds],
        "incomparable": analysis.incomparable,
        "supremum": analysis.supremum.describe() if analysis.supremum else None,
        "weakly_orthocomplete_violated": analysis.weakly_orthocomplete_violated,
    }
    ok = (len(analysis.upper_bounds) == 3 and len(analysis.minimal_upper_bounds) == 2
          and analysis.incomparable and analysis.supremum is None)
    if not ok:
        print("internal theorem-check failure in the upper-bound analysis", file=sys.stderr)
        return 3, payload
    return 0, payload


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
