"""Finitely-representable elements of four infinite effect algebras.

Each submodule fixes one concrete countable family, implements its exact
partial sum, order and orthosupplement on the finite representations, and
ships targeted checkers for the non-existence claims the family was built
to witness.  Infinite quantification is replaced by two mechanisms:

* defeaters: constructive refutations that map any candidate bound to a
  strictly better bound or to a structural rejection, and
* finite reductions: arguments that confine all candidates to a finite
  residue, which is then scanned exhaustively.

Every defeater output is re-verified through the family's own order
predicate before it is reported; nothing is trusted as prose.

``fincof`` and ``balanced`` share one set algebra, ``FiniteOrCofinite``:
a finite set of points or its complement in the carrier, under union of
disjoint members, complement and inclusion.  The two families differ only
in which finite sets they admit, so each subclasses it with its own
membership check and ``describe``; the operations below serve both and
build their results with ``type(u)``, so a sum stays in its family.

Families:

* ``fincof``:         finite and cofinite subsets of ℕ (a Boolean algebra
  that is not orthocomplete).
* ``blocks``:         four infinite blocks, the six block unions, and
  finite perturbations (weakly orthocomplete OMP, neither orthocomplete
  nor a lattice).
* ``extended_chain``: 0, 1, 2, ... together with ..., 2', 1', 0'
  (weakly orthocomplete atomic chain that is not orthoatomistic).
* ``balanced``:       finite sets meeting two countable sides in equal
  cardinality, plus their complements (orthoatomistic OMP that is not
  weakly orthocomplete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Refutation:
    """How a refuter defeated one candidate for a non-existence claim.

    The caller holds the claim and the candidate.  ``kind`` says how the
    candidate failed; ``witness`` is the defeating object (a better bound,
    or the family element the candidate misses); ``detail`` says it in
    words.  ``verified`` is set only after the defeat has been re-checked
    with the family's own membership and order predicates.
    """

    kind: str
    witness: Any
    detail: str
    verified: bool


@dataclass(frozen=True)
class FiniteOrCofinite:
    """``points`` if not ``complemented``, else the carrier without ``points``."""

    points: frozenset
    complemented: bool = False


def contains(u: FiniteOrCofinite, p: Any) -> bool:
    return (p in u.points) != u.complemented


def oplus(u: FiniteOrCofinite, v: FiniteOrCofinite) -> FiniteOrCofinite | None:
    """Union of disjoint members; ``None`` when the sets intersect.

    Two complemented sets always share a point, so their sum is never
    defined.  The union of disjoint admitted sets is again admitted.
    """
    if not u.complemented and not v.complemented:
        if u.points & v.points:
            return None
        return type(u)(u.points | v.points)
    if u.complemented and v.complemented:
        return None
    d, c = (u, v) if v.complemented else (v, u)
    if not d.points <= c.points:
        return None
    return type(u)(c.points - d.points, complemented=True)


def supplement(u: FiniteOrCofinite) -> FiniteOrCofinite:
    return type(u)(u.points, not u.complemented)


def le(u: FiniteOrCofinite, v: FiniteOrCofinite) -> bool:
    """Inclusion; the difference of nested members is always in the family."""
    if not u.complemented and not v.complemented:
        return u.points <= v.points
    if not u.complemented and v.complemented:
        return not (u.points & v.points)
    if u.complemented and not v.complemented:
        return False
    return v.points <= u.points


def lt(u: FiniteOrCofinite, v: FiniteOrCofinite) -> bool:
    return u != v and le(u, v)


def ominus(v: FiniteOrCofinite, u: FiniteOrCofinite) -> FiniteOrCofinite | None:
    """The unique c with u + c = v, when u <= v."""
    if not le(u, v):
        return None
    if not v.complemented:
        return type(v)(v.points - u.points)
    if u.complemented:
        return type(v)(u.points - v.points)
    return type(v)(v.points | u.points, complemented=True)


from . import balanced, blocks, extended_chain, fincof  # noqa: E402

__all__ = ["Refutation", "FiniteOrCofinite", "fincof", "blocks", "extended_chain", "balanced"]
