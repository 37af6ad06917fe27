"""Balanced finite sets over two countable sides, and their complements.

Fix two disjoint countable sets of points, the x-side and the y-side.  A
*balanced* set is a finite set of points meeting both sides in the same
cardinality.  The family consists of all balanced sets together with the
complements (in the full carrier Z = X ∪ Y) of balanced sets; the sum is
union of disjoint members, the orthosupplement is complement, the order
is inclusion.

The atoms are the two-point sets {x_i, y_j}.  The family is
orthoatomistic: a direct balanced set splits into atoms by pairing its
x-part with its y-part (``atom_decomposition``).  It is not weakly
orthocomplete: for the pairing x_i -> y_{i+1} the orthogonal system
{{x_i, y_{i+1}} : i >= 1} leaves exactly the three points x_0, y_0, y_1
uncovered, so its upper bounds are exactly the complements of balanced
subsets of those three points (Z, Z∖{x_0,y_0} and Z∖{x_0,y_1}), which
gives two incomparable minimal upper bounds and no supremum.
``two_minimal_upper_bounds`` performs that eight-subset scan and verifies
every claim it makes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import InvariantViolation
# the shared set algebra's operations are re-exported as this family's own
from . import FiniteOrCofinite, contains, le, lt, ominus, oplus, supplement  # noqa: F401

Point = tuple[str, int]  # ("x" | "y", index)


def xp(i: int) -> Point:
    return ("x", i)


def yp(i: int) -> Point:
    return ("y", i)


def _is_balanced(points: frozenset[Point]) -> bool:
    xs = sum(1 for t, _ in points if t == "x")
    return xs * 2 == len(points)


@dataclass(frozen=True)
class BalancedElement(FiniteOrCofinite):
    """``points`` if direct; Z without ``points`` if ``complemented``."""

    def __post_init__(self) -> None:
        for t, i in self.points:
            if t not in ("x", "y") or i < 0:
                raise ValueError(f"bad point {(t, i)!r}")
        if not _is_balanced(self.points):
            raise ValueError("the finite part must meet both sides equally")

    def describe(self) -> str:
        inner = "{" + ",".join(f"{t}{i}" for t, i in sorted(self.points)) + "}"
        if self.complemented:
            return "X∪Y" if not self.points else f"(X∪Y)∖{inner}"
        return "∅" if not self.points else inner


def direct(*points: Point) -> BalancedElement:
    return BalancedElement(frozenset(points))


def codirect(*points: Point) -> BalancedElement:
    return BalancedElement(frozenset(points), complemented=True)


ZERO = direct()
ONE = codirect()


def atom(i: int, j: int) -> BalancedElement:
    return direct(xp(i), yp(j))


def atom_decomposition(u: BalancedElement) -> list[BalancedElement]:
    """Split a direct element into atoms by pairing sorted x- and y-parts.

    The fold of the returned atoms is re-verified to reproduce the input.
    """
    if u.complemented:
        raise ValueError("only direct elements decompose into finitely many atoms")
    xs = sorted(i for t, i in u.points if t == "x")
    ys = sorted(i for t, i in u.points if t == "y")
    parts = [atom(i, j) for i, j in zip(xs, ys)]
    acc = ZERO
    for a in parts:
        nxt = oplus(acc, a)
        if nxt is None:
            raise InvariantViolation("atom decomposition failed to fold")
        acc = nxt
    if acc != u:
        raise InvariantViolation("atom decomposition does not reproduce the element")
    return parts


# --- the two-minimal-upper-bounds witness ------------------------------------

def pairing_system_member(i: int) -> BalancedElement:
    """The i-th member {x_i, y_{i+1}} of the orthogonal system (i >= 1)."""
    return atom(i, i + 1)


FREE_POINTS: tuple[Point, ...] = (xp(0), yp(0), yp(1))


@dataclass(frozen=True)
class UpperBoundAnalysis:
    depth: int
    upper_bounds: tuple[BalancedElement, ...]
    minimal_upper_bounds: tuple[BalancedElement, ...]
    incomparable: bool
    supremum: BalancedElement | None
    weakly_orthocomplete_violated: bool


def two_minimal_upper_bounds(depth: int = 20) -> UpperBoundAnalysis:
    """Compute all upper bounds of the pairing system and their minima.

    The finite reduction: a direct element is finite and misses some pair,
    so an upper bound is Z∖A with A balanced and disjoint from every pair;
    a finite A disjoint from all pairs lies inside {x_0, y_0, y_1}.  The
    eight subsets of that residue are scanned; each claim (upper-bound
    status to ``depth``, minimality, incomparability, absence of a least
    element) is then re-verified through ``le`` rather than trusted.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1 to check the upper bounds")
    system = [pairing_system_member(i) for i in range(1, depth + 1)]

    ubs: list[BalancedElement] = []
    for r in range(len(FREE_POINTS) + 1):
        for combo in itertools.combinations(FREE_POINTS, r):
            pts = frozenset(combo)
            if not _is_balanced(pts):
                continue
            cand = BalancedElement(pts, complemented=True)
            if not all(le(m, cand) for m in system):
                raise InvariantViolation("residue scan produced a non-upper-bound")
            ubs.append(cand)
    if len(ubs) != 3:
        raise InvariantViolation(f"expected 3 upper bounds from the residue scan, got {len(ubs)}")

    # No direct element is an upper bound: it misses a deep enough pair.
    for cand in ubs:
        if not cand.complemented:
            raise InvariantViolation("a direct element cannot contain every pair")

    minimal = tuple(c for c in ubs if not any(lt(o, c) for o in ubs))
    if len(minimal) != 2:
        raise InvariantViolation(f"expected exactly 2 minimal upper bounds, got {len(minimal)}")
    a, b = minimal
    incomparable = not le(a, b) and not le(b, a)
    least = next((c for c in ubs if all(le(c, o) for o in ubs)), None)
    return UpperBoundAnalysis(
        depth=depth,
        upper_bounds=tuple(ubs),
        minimal_upper_bounds=minimal,
        incomparable=incomparable,
        supremum=least,
        weakly_orthocomplete_violated=least is None and bool(minimal),
    )


def random_element(rng) -> BalancedElement:
    k = rng.randint(0, 4)
    xs = rng.sample(range(15), k)
    ys = rng.sample(range(15), k)
    pts = frozenset(itertools.chain((xp(i) for i in xs), (yp(j) for j in ys)))
    return BalancedElement(pts, complemented=rng.random() < 0.5)
