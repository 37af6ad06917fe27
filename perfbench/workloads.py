"""Workload definitions: the CLI invocations of one pass and their checks.

A workload is a fixed list of ``effalg`` invocations.  The ``props-*``
workloads write their ``.efa`` inputs from the seed: each model is an
isomorphic relabelling (through the public ``effalg.permute``, 0 kept at
index 0) of a built-in recipe, so every seed gets the same answers from
different bytes.  The work varies a little with the labelling, so
``props-chain`` runs three relabellings per pass.  The enumeration
workloads take no input.

Every invocation is checked.  On seed 0 the exit code and stdout must
match the references in ``refs/`` byte for byte.  On other seeds a
``props`` report is compared with the seed-0 reference on the fields that
do not depend on labelling: validity, the twelve profile flags, the atom
count and the theorem statuses.  Enumeration output does not depend on the
seed, so it is compared byte for byte on every seed, and the class counts
and the negative search certificate are also checked independently of the
references.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

ENUMERATION_COUNTS = (1, 1, 3, 4, 10, 14, 40)
ENUMERATION_CLASSES = sum(ENUMERATION_COUNTS)

WIDE_RECIPES = ("even_subsets:8", "boolean:6", "horizontal_sum(boolean:2,chain:3)")
INVALID_BASE = "even_subsets:8"
# The orthogonal scan's cost depends on the labelling by up to about 10 %,
# so a props-chain pass averages over several relabellings.
CHAIN_COPIES = 3


@dataclass(frozen=True)
class Invocation:
    key: str  # stable id, the key of its reference
    args: tuple[str, ...]


WORKLOADS = ("props-wide", "props-chain", "enumerate-verify", "search-negative")


def _file_name(recipe: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", recipe).strip("_") + ".efa"


def _relabelled(recipe: str, rng: random.Random):
    import effalg

    alg = effalg.parse_recipe(recipe)
    rest = list(range(1, alg.size))
    rng.shuffle(rest)
    return effalg.permute(alg, (0, *rest))


def _broken(alg, rng: random.Random):
    """A copy whose chosen element no longer sums with its supplement to the unit."""
    x = rng.choice([i for i in range(1, alg.size) if i != alg.one])
    partner = next(y for y in range(alg.size) if alg.sum_of(x, y) == alg.one)
    return alg.with_entry(x, partner, x)


def build(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the workload's inputs into ``workdir`` and list one pass."""
    import effalg

    rng = random.Random(seed)
    if workload == "props-wide":
        out = []
        for recipe in WIDE_RECIPES:
            name = _file_name(recipe)
            alg = _relabelled(recipe, rng)
            effalg.save(alg, workdir / name)
            out.append(Invocation(name, ("props", name, "--json")))
            if recipe == INVALID_BASE:
                bad = "invalid_" + name
                effalg.save(_broken(alg, rng), workdir / bad)
                out.append(Invocation(bad, ("props", bad, "--json")))
        return out
    if workload == "props-chain":
        out = []
        for copy in range(1, CHAIN_COPIES + 1):
            name = _file_name(f"chain:32:{copy}")
            effalg.save(_relabelled("chain:32", rng), workdir / name)
            out.append(Invocation(name, ("props", name, "--json")))
        return out
    if workload == "enumerate-verify":
        return [Invocation("enumerate", ("enumerate", "--max-size", "8", "--big",
                                         "--verify-theorems"))]
    if workload == "search-negative":
        return [Invocation("search", ("search", "--require", "lattice", "--forbid",
                                      "orthocomplete", "--max-size", "8"))]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# checks


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _props_invariants(stdout: bytes) -> dict:
    doc = json.loads(stdout)
    prof = doc["profile"]
    return {
        "valid": doc["valid"],
        "flags": {k: v for k, v in prof.items() if k != "atoms"},
        "atoms": len(prof.get("atoms", ())),
        "theorems": {cid: entry["status"] for cid, entry in doc["theorems"].items()},
    }


def _independent_check(inv: Invocation, code: int, stdout: bytes) -> str | None:
    text = stdout.decode("utf-8", errors="replace")
    command = inv.args[0]
    if command == "enumerate":
        counts = tuple(int(m) for m in re.findall(r"^order \d+: (\d+) models$", text, re.M))
        if counts != ENUMERATION_COUNTS:
            return f"class counts {counts}, expected {ENUMERATION_COUNTS}"
        if "failures: 0; duplicate canonical forms: 0" not in text:
            return "theorem summary reports failures or duplicate forms"
        if code != 0:
            return f"exit code {code}, expected 0"
    elif command == "search":
        if text.splitlines()[:1] != ["none"]:
            return "negative search did not print 'none'"
        if f"({ENUMERATION_CLASSES} isomorphism classes scanned)" not in text:
            return f"certificate does not name {ENUMERATION_CLASSES} scanned classes"
        if code != 1:
            return f"exit code {code}, expected 1"
    return None


def check(inv: Invocation, seed: int, code: int, stdout: bytes, stderr: bytes,
          refs: dict) -> str | None:
    """``None`` when the invocation's output is correct, else the reason."""
    if b"Traceback" in stderr:
        return "traceback on stderr"
    problem = _independent_check(inv, code, stdout)
    if problem:
        return problem
    ref = refs[inv.key]
    if code != ref["exit"]:
        return f"exit code {code}, reference {ref['exit']}"
    if seed == 0 or inv.args[0] != "props":
        if stdout != ref["stdout"].encode("utf-8"):
            return "stdout differs from the reference"
        return None
    try:
        got = _props_invariants(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if got != _props_invariants(ref["stdout"].encode("utf-8")):
        return "isomorphism-invariant fields differ from the reference"
    return None
