"""Four infinite blocks, their six sanctioned unions, and finite noise.

The carrier splits into four disjoint infinite blocks B1..B4 (concretely:
the residue classes of ℕ mod 4; the point (i, k) is the k-th element of
block i).  The family consists of the sets A Δ F where F is finite and A
is one of the six bases

    ∅,  B1∪B2,  B2∪B3,  B3∪B4,  B4∪B1,  B1∪B2∪B3∪B4.

The partial sum is union of disjoint members (the union then lands in the
family automatically), the orthosupplement is complement, the order is
inclusion.  The family is a weakly orthocomplete orthomodular poset that
is neither a lattice nor orthocomplete; the two checkers here defeat

* any candidate meet of B1∪B2 and B2∪B3 (the common lower bounds are
  exactly the finite subsets of B2, which have no greatest member), and
* any candidate least upper bound of the B1 singletons (every upper bound
  keeps a whole second block and can always afford to lose one of its
  points).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import Refutation

Point = tuple[int, int]  # (block 1..4, index within the block)

# base -> (name, complement), in the order the seeded draws pick from
_BASE_TABLE: dict[frozenset[int], tuple[str, frozenset[int]]] = {
    frozenset(): ("∅", frozenset({1, 2, 3, 4})),
    frozenset({1, 2}): ("B1∪B2", frozenset({3, 4})),
    frozenset({2, 3}): ("B2∪B3", frozenset({4, 1})),
    frozenset({3, 4}): ("B3∪B4", frozenset({1, 2})),
    frozenset({4, 1}): ("B4∪B1", frozenset({2, 3})),
    frozenset({1, 2, 3, 4}): ("X", frozenset()),
}
BASES: tuple[frozenset[int], ...] = tuple(_BASE_TABLE)

MEET_CLAIM = "B1∪B2 and B2∪B3 have no infimum"
SUP_CLAIM = "the B1 singletons have no supremum"


@dataclass(frozen=True)
class BlockElement:
    """base Δ perturbation, where base is one of the six block unions."""

    base: frozenset[int]
    pert: frozenset[Point] = frozenset()

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise ValueError(f"base {set(self.base)!r} is not one of the six block unions")
        for i, k in self.pert:
            if i not in (1, 2, 3, 4) or k < 0:
                raise ValueError(f"bad point {(i, k)!r}")

    def describe(self) -> str:
        name = _BASE_TABLE[self.base][0]
        if not self.pert:
            return name
        pts = "{" + ",".join(f"b{i}.{k}" for i, k in sorted(self.pert)) + "}"
        return f"{name} Δ {pts}"


ZERO = BlockElement(frozenset())
ONE = BlockElement(frozenset({1, 2, 3, 4}))


def contains(u: BlockElement, p: Point) -> bool:
    return (p[0] in u.base) != (p in u.pert)


def _finite_intersection(u: BlockElement, v: BlockElement) -> frozenset[Point] | None:
    """The exact intersection if it is finite, else ``None``.

    The intersection is infinite iff the bases share a block; otherwise it
    is confined to the two finite perturbations and computed point by point.
    """
    if u.base & v.base:
        return None
    hits = {p for p in u.pert | v.pert if contains(u, p) and contains(v, p)}
    return frozenset(hits)


def is_disjoint(u: BlockElement, v: BlockElement) -> bool:
    inter = _finite_intersection(u, v)
    return inter is not None and not inter


def oplus(u: BlockElement, v: BlockElement) -> BlockElement | None:
    """Union of disjoint members.  Disjoint bases always union inside the
    six-element base family, so no extra membership condition is needed."""
    if not is_disjoint(u, v):
        return None
    return BlockElement(u.base | v.base, u.pert ^ v.pert)


def supplement(u: BlockElement) -> BlockElement:
    return BlockElement(_BASE_TABLE[u.base][1], u.pert)


def le(u: BlockElement, v: BlockElement) -> bool:
    """Inclusion, decided exactly as disjointness from the complement."""
    return is_disjoint(u, supplement(v))


def lt(u: BlockElement, v: BlockElement) -> bool:
    return u != v and le(u, v)


def ominus(v: BlockElement, u: BlockElement) -> BlockElement | None:
    if not le(u, v):
        return None
    return BlockElement(v.base - u.base, v.pert ^ u.pert)


def singleton(p: Point) -> BlockElement:
    return BlockElement(frozenset(), frozenset({p}))


U12 = BlockElement(frozenset({1, 2}))
U23 = BlockElement(frozenset({2, 3}))


def _fresh_point(i: int, used: frozenset[Point]) -> Point:
    k = 0
    while (i, k) in used:
        k += 1
    return (i, k)


def refute_meet_candidate(candidate: BlockElement) -> Refutation:
    """Defeat one candidate infimum of B1∪B2 and B2∪B3.

    A common lower bound must have base ∅ ({2} alone is not an allowed
    base) and all its points in block 2; adding one fresh block-2 point
    gives a strictly larger common lower bound, so no candidate can be the
    greatest one.
    """
    if not (le(candidate, U12) and le(candidate, U23)):
        side = U12 if not le(candidate, U12) else U23
        return Refutation("not_common_lower_bound", side,
                          f"not a common lower bound: not below {side.describe()}",
                          verified=not le(candidate, side))

    # The le checks above force base = ∅ and pert ⊆ block 2.
    if candidate.base or any(i != 2 for i, _ in candidate.pert):
        raise AssertionError("a common lower bound escaped the base analysis")
    fresh = _fresh_point(2, candidate.pert)
    bigger = BlockElement(frozenset(), candidate.pert | {fresh})
    verified = (le(bigger, U12) and le(bigger, U23) and lt(candidate, bigger))
    return Refutation("larger_common_lower_bound", bigger,
                      f"common lower bound {bigger.describe()} is strictly larger", verified)


def is_upper_bound_of_b1_singletons(u: BlockElement) -> bool:
    """Exact test: u contains the whole of block 1.

    If block 1 is not in the base, the perturbation would have to supply
    infinitely many points; if it is, the perturbation must avoid block 1.
    """
    return 1 in u.base and all(i != 1 for i, _ in u.pert)


def refute_singleton_sup_candidate(candidate: BlockElement) -> Refutation:
    """Defeat one candidate least upper bound of the block-1 singletons.

    Every upper bound carries a second whole block, so excising one fresh
    point of that block leaves a strictly smaller upper bound.
    """
    if not is_upper_bound_of_b1_singletons(candidate):
        missing = _missing_b1_singleton(candidate)
        return Refutation("not_upper_bound", missing,
                          f"not an upper bound: misses {missing.describe()}",
                          verified=not le(missing, candidate))

    spare_blocks = sorted(candidate.base - {1})
    if not spare_blocks:
        raise AssertionError("an upper bound escaped the base analysis")
    i = spare_blocks[0]
    q = _fresh_point(i, candidate.pert)
    smaller = BlockElement(candidate.base, candidate.pert | {q})
    verified = (is_upper_bound_of_b1_singletons(smaller)
                and lt(smaller, candidate)
                and contains(candidate, q))
    return Refutation("smaller_upper_bound", smaller,
                      f"still an upper bound after dropping b{i}.{q[1]}: "
                      f"{smaller.describe()} < {candidate.describe()}", verified)


def _missing_b1_singleton(u: BlockElement) -> BlockElement:
    if 1 in u.base:
        bad = sorted(p for p in u.pert if p[0] == 1)[0]
        return singleton(bad)
    return singleton(_fresh_point(1, u.pert))


def random_element(rng: random.Random) -> BlockElement:
    base = BASES[rng.randrange(len(BASES))]
    pert = frozenset((rng.randint(1, 4), rng.randrange(10)) for _ in range(rng.randint(0, 5)))
    return BlockElement(base, pert)


def random_common_lower_bound(rng: random.Random) -> BlockElement:
    pert = frozenset((2, rng.randrange(10)) for _ in range(rng.randint(0, 5)))
    return BlockElement(frozenset(), pert)


def random_b1_upper_bound(rng: random.Random) -> BlockElement:
    base = [b for b in BASES if 1 in b][rng.randrange(3)]
    pert = frozenset((rng.choice((2, 3, 4)), rng.randrange(10)) for _ in range(rng.randint(0, 5)))
    return BlockElement(base, pert)
