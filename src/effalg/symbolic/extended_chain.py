"""The two-ended chain 0, 1, 2, ... < ... , 2', 1', 0'.

Elements are naturals n and primed naturals n'; the unit is 0'.  The sum
is m + n on naturals and m ⊕ n' = (n−m)' for m <= n; two primed elements
never add.  The order is the obvious chain: every natural sits below
every primed element, naturals increase, primed elements reverse.

The family is an atomic, weakly orthocomplete chain whose only atom is 1,
and it is not orthoatomistic: finite multisets of atoms only reach the
naturals, while infinite systems of atoms have the primed elements as an
infinite strictly decreasing family of upper bounds and therefore no
minimal one (which is also why weak orthocompleteness survives).
``not_orthoatomistic_report`` machine-checks both facts to a requested
depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import InvariantViolation


@dataclass(frozen=True)
class ChainElement:
    value: int
    primed: bool = False

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("chain values are naturals")

    def describe(self) -> str:
        return f"{self.value}'" if self.primed else str(self.value)


def nat(n: int) -> ChainElement:
    return ChainElement(n)


def primed(n: int) -> ChainElement:
    return ChainElement(n, primed=True)


ZERO = nat(0)
ONE = primed(0)


def oplus(u: ChainElement, v: ChainElement) -> ChainElement | None:
    if u.primed and v.primed:
        return None
    if not u.primed and not v.primed:
        return nat(u.value + v.value)
    m, p = (u, v) if v.primed else (v, u)
    if m.value > p.value:
        return None
    return primed(p.value - m.value)


def supplement(u: ChainElement) -> ChainElement:
    return ChainElement(u.value, not u.primed)


def le(u: ChainElement, v: ChainElement) -> bool:
    if not u.primed and not v.primed:
        return u.value <= v.value
    if not u.primed and v.primed:
        return True
    if u.primed and not v.primed:
        return False
    return v.value <= u.value


def lt(u: ChainElement, v: ChainElement) -> bool:
    return u != v and le(u, v)


def ominus(v: ChainElement, u: ChainElement) -> ChainElement | None:
    """The unique c with u + c = v, when u <= v."""
    if not le(u, v):
        return None
    if not v.primed:
        return nat(v.value - u.value)
    if u.primed:
        return nat(u.value - v.value)
    return primed(v.value + u.value)


def elements_to_depth(depth: int) -> list[ChainElement]:
    return [nat(k) for k in range(depth + 1)] + [primed(k) for k in range(depth, -1, -1)]


def atoms_to_depth(depth: int) -> list[ChainElement]:
    """Minimal nonzero elements among everything of depth at most ``depth``.

    Depth is exhaustive for this purpose: an element deeper than the scan
    window still has 1 below it, so no new atoms can appear later.
    """
    window = elements_to_depth(depth)
    out = []
    for e in window:
        if e == ZERO:
            continue
        if not any(f != ZERO and f != e and le(f, e) for f in window):
            out.append(e)
    return out


def reachable_by_atom_sums(depth: int) -> set[ChainElement]:
    """Closure of {0} under adding the atom 1, up to total ``depth``."""
    atom = nat(1)
    reached = {ZERO}
    frontier = [ZERO]
    while frontier:
        nxt = []
        for x in frontier:
            s = oplus(x, atom)
            if s is not None and s.value <= depth and s not in reached:
                reached.add(s)
                nxt.append(s)
        frontier = nxt
    return reached


@dataclass(frozen=True)
class ChainClaimReport:
    """Machine-checked evidence that a primed element is not a sum of atoms."""

    target: ChainElement
    depth: int
    atoms: tuple[ChainElement, ...]
    reachable: tuple[ChainElement, ...]
    target_reachable: bool
    all_reachable_unprimed: bool
    decreasing_chain: tuple[ChainElement, ...]
    chain_strictly_decreasing: bool
    chain_all_upper_bounds: bool
    no_natural_upper_bound: bool

    @property
    def claim_holds(self) -> bool:
        return (not self.target_reachable
                and self.all_reachable_unprimed
                and self.chain_strictly_decreasing
                and self.chain_all_upper_bounds
                and self.no_natural_upper_bound)


def not_orthoatomistic_report(target: int = 5, depth: int = 20) -> ChainClaimReport:
    """Certify that ``target'`` is not a sum of atoms, to finite depth.

    Finite atom-multiset sums are scanned exhaustively up to ``depth``; the
    scan doubles as the closure argument since every sum of k copies of 1
    is the natural k, which the report checks explicitly.  For infinite
    systems of atoms the partial sums are all the naturals, whose upper
    bounds m' are verified to form a strictly decreasing chain with no
    natural below it, hence no minimal upper bound exists.
    """
    if depth < max(target, 2):
        raise ValueError("depth too small to exercise the claim")
    tgt = primed(target)
    ats = tuple(atoms_to_depth(depth))
    if ats != (nat(1),):
        raise InvariantViolation("the chain family must have exactly the atom 1")
    reach = tuple(sorted(reachable_by_atom_sums(depth), key=lambda e: e.value))
    chain = tuple(primed(m) for m in range(depth + 1))
    strictly_decreasing = all(lt(chain[m + 1], chain[m]) for m in range(depth))
    all_upper = all(le(nat(k), chain[m]) for m in range(depth + 1) for k in range(depth + 1))
    no_natural_ub = all(not le(nat(k + 1), nat(k)) for k in range(depth))
    return ChainClaimReport(
        target=tgt,
        depth=depth,
        atoms=ats,
        reachable=reach,
        target_reachable=tgt in reach,
        all_reachable_unprimed=all(not e.primed for e in reach),
        decreasing_chain=chain,
        chain_strictly_decreasing=strictly_decreasing,
        chain_all_upper_bounds=all_upper,
        no_natural_upper_bound=no_natural_ub,
    )


def random_element(rng) -> ChainElement:
    return ChainElement(rng.randrange(40), rng.random() < 0.5)
