"""Finite and cofinite subsets of ℕ under disjoint union.

An element is either a finite subset of ℕ or the complement of one.  The
partial sum is union of disjoint members (two cofinite sets always
intersect, so their sum is never defined), the orthosupplement is set
complement, and the induced order is plain inclusion.  The family is a
Boolean algebra, but it is not orthocomplete: the singletons of the even
numbers form an orthogonal system whose partial sums have upper bounds
and no minimal one.  ``refute_upper_bound_candidate`` turns any claimed
minimal upper bound (or supremum) of that system into a strictly smaller
upper bound, or rejects it for not being an upper bound at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the shared set algebra's operations are re-exported as this family's own
from . import FiniteOrCofinite, Refutation, contains, le, lt, ominus, oplus, supplement  # noqa: F401

CLAIM = "no minimal upper bound for the even-singleton system"


@dataclass(frozen=True)
class FinCofElement(FiniteOrCofinite):
    """``points`` if not ``complemented``, else ℕ without ``points``."""

    def __post_init__(self) -> None:
        for p in self.points:
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"points must be naturals, got {p!r}")

    def describe(self) -> str:
        inner = "{" + ",".join(str(p) for p in sorted(self.points)) + "}"
        if self.complemented:
            return "ℕ" if not self.points else f"ℕ∖{inner}"
        return "∅" if not self.points else inner


def fin(*points: int) -> FinCofElement:
    return FinCofElement(frozenset(points))


def cofin(*removed: int) -> FinCofElement:
    return FinCofElement(frozenset(removed), complemented=True)


ZERO = fin()
ONE = cofin()


# --- the orthogonal system of even singletons -------------------------------

def even_singleton(k: int) -> FinCofElement:
    return fin(2 * k)


def is_upper_bound_of_evens(u: FinCofElement) -> bool:
    """Exact test: u contains every even number.

    A finite set cannot, and a cofinite set does iff it removes no even
    number, so the infinite quantification collapses to a finite check.
    """
    return u.complemented and all(p % 2 == 1 for p in u.points)


def refute_upper_bound_candidate(candidate: FinCofElement) -> Refutation:
    """Defeat one candidate least/minimal upper bound of the even singletons.

    Either the candidate is not an upper bound (witnessed by a concrete even
    singleton it misses), or removing one odd point of it yields a strictly
    smaller upper bound.  Both outcomes refute minimality claims; the
    defeater is re-verified with ``le`` before being reported.
    """
    if not is_upper_bound_of_evens(candidate):
        missing = _missing_even(candidate)
        witness = even_singleton(missing // 2)
        verified = not le(witness, candidate) and contains(witness, missing)
        return Refutation(
            "not_upper_bound", witness,
            f"not an upper bound: misses the even singleton {witness.describe()}", verified)

    p = 1
    while p in candidate.points:
        p += 2
    smaller = FinCofElement(candidate.points | {p}, complemented=True)
    verified = (is_upper_bound_of_evens(smaller)
                and lt(smaller, candidate)
                and contains(candidate, p))
    return Refutation(
        "smaller_upper_bound", smaller,
        f"still an upper bound after removing {p}: {smaller.describe()} < {candidate.describe()}",
        verified)


def _missing_even(u: FinCofElement) -> int:
    if u.complemented:
        evens = sorted(p for p in u.points if p % 2 == 0)
        return evens[0]
    p = 0
    while p in u.points:
        p += 2
    return p


def random_element(rng: random.Random) -> FinCofElement:
    points = frozenset(rng.sample(range(40), rng.randint(0, 6)))
    return FinCofElement(points, complemented=rng.random() < 0.5)


def random_upper_bound(rng: random.Random) -> FinCofElement:
    removed = frozenset(rng.sample(range(1, 40, 2), rng.randint(0, 6)))
    return FinCofElement(removed, complemented=True)
