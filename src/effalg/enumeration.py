"""Exhaustive generation of effect algebras up to isomorphism.

The generator fills partial sum tables cell by cell (row-major over pairs
(a, b) with a <= b) and prunes with everything the axioms force:

* the zero row is pinned to a + 0 = a, which holds in every valid table;
* the unit is pinned to the last index and its column to "undefined"
  (only 0 + 1 = 1 survives), which every isomorphism class can realize;
* the orthosupplement involution is chosen up front in canonical form
  (pairs (1,2), (3,4), ... then fixed points), which pins every a + a' = 1
  cell and bars the unit value from all other cells, so uniqueness of
  orthosupplements becomes structural;
* each newly decided cell closes every strong-associativity instance
  (x+y)+z = x+(y+z) that touches it, and a contradiction prunes the
  branch; the instance on (z, y, x) is the one on (x, y, z) read
  backwards, so it is enough to visit the new cell as x+y and as the outer
  sum (x+y)+z, in both orientations, and compare both sides each time;
* the cancellation law (a + b = a + c implies b = c) bars a value from a
  row that already holds it, both for the value tried in a cell and for a
  value an associativity instance forces on an undecided cell; every
  valid table obeys it, so no leaf is lost;
* a branch whose partial table is provably not lexicographically minimal
  under the relabelings that respect the pinned structure (permutations
  fixing 0 and the unit and commuting with the involution) is pruned; the
  test is incremental: each relabeling's image of the decided prefix is
  compared with the prefix up to the first cell whose preimage is still
  undecided, and the relabeling is looked at again only when that cell is
  decided (the watched literals of SAT solvers);
* surviving leaves are validated and canonically relabeled; the pruning
  ranges over the whole centralizer, so it keeps exactly one leaf per
  class, and two leaves with one canonical form raise
  ``InvariantViolation``;
* the relabelings whose image ties the whole table at a leaf map it onto
  itself, so they are its whole automorphism group but the identity, and
  the labeller receives them to try one new label per orbit;
* every emitted model is checked to be its own canonical representative,
  so callers compare emitted models directly, not their canonical forms.

Isomorphisms fix 0 and 1 by definition, and the table alone determines
the unit (the top of the induced order), so the canonical form ranges
over all carrier permutations fixing 0 only.  It is the lexicographically
least relabeled table.  A branch and bound finds it exactly: it hands out
new labels in order and cuts a partial labeling only when row 1 of the
relabeled table, the first row that is not the same for every labeling,
is already provably greater than the best table found, so no least
labeling is ever cut.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, NamedTuple, Sequence

from .core import FiniteEffectAlgebra, InvariantViolation, validate
from .properties import PROFILE_FLAGS, profile

ENUMERATION_CAP = 10

_UNKNOWN = -2
_UNDEF = -1


def permute(alg: FiniteEffectAlgebra, pi: Sequence[int]) -> FiniteEffectAlgebra:
    """Relabel a table along a carrier permutation with pi[0] == 0."""
    if sorted(pi) != list(range(alg.size)) or pi[0] != 0:
        raise ValueError("need a carrier permutation fixing 0")
    entries = {}
    for a, b, c in alg.defined_pairs():
        entries[(pi[a], pi[b])] = pi[c]
    labels: tuple[str, ...] = ()
    if alg.labels:
        out = [""] * alg.size
        for i, lab in enumerate(alg.labels):
            out[pi[i]] = lab
        labels = tuple(out)
    return FiniteEffectAlgebra.from_entries(alg.size, pi[alg.one], entries, labels, alg.name)


def _linearize(alg: FiniteEffectAlgebra, pi: Sequence[int], inv: Sequence[int],
               best: bytes | None) -> bytes | None:
    """Linearization of the pi-image table; ``None`` once it exceeds ``best``.

    Each cell is one byte and 255 codes "undefined", so carriers of more
    than 255 elements raise ``ValueError``.
    """
    n = alg.size
    if n > 255:
        raise ValueError(f"canonical forms cover carriers of at most 255 elements, not {n}")
    rows = alg.table
    out = bytearray()
    pos = 0
    for a in range(n):
        row = rows[inv[a]]
        for b in range(a, n):
            v = row[inv[b]]
            code = 255 if v is None else pi[v]
            if best is not None:
                ref = best[pos]
                if code > ref:
                    return None
                if code < ref:
                    best = None  # strictly better; stop comparing
            out.append(code)
            pos += 1
    return bytes(out)


def canonicalize(alg: FiniteEffectAlgebra, *,
                 automorphisms: Sequence[Sequence[int]] = ()) -> tuple[bytes, FiniteEffectAlgebra]:
    """Canonical form and the canonically relabeled model.

    The form is the lexicographically least linearization over every
    carrier permutation pi fixing 0, and the model is relabeled along the
    least such pi (the first in ``itertools.permutations`` order).  A
    depth-first search hands out the new labels 1, 2, ..., n-1 in turn and
    keeps the least linearization ``best`` found so far.  Row 0 of every
    relabeled table is 0, 1, ..., n-1, so row 1 leads the comparison: its
    cell (1, b) is decided once labels 1 and b are handed out and the sum
    is undefined (255) or already labeled, and is otherwise at least the
    count of labels handed out.  A subtree is cut only when a decided cell
    or that lower bound exceeds ``best`` after an equal prefix, so every
    leaf below it is worse than ``best``; every minimising pi is reached,
    and the result equals that of trying all (n-1)! relabelings.

    ``automorphisms`` may hand over the automorphism group of ``alg``: each
    g as a tuple with ``alg`` mapped onto itself by a -> g[a].  It must be
    the whole group (the identity may be left out); a proper subgroup can
    yield the wrong relabeled model.  The search then tries one element per
    orbit of the automorphisms that fix every element labeled so far, since
    g carries the subtrees of a and g[a] onto each other, and relabels along
    the least pi o g over the group: the minimising permutations are exactly
    one such coset.  The form and the model equal those found without it.

    Carriers of more than 255 elements raise ``ValueError`` (see ``_linearize``).
    """
    n = alg.size
    best = _linearize(alg, range(n), range(n), None)  # the identity bounds the search
    assert best is not None
    best_pi = list(range(n))
    rows = alg.table
    pi = [0] + [-1] * (n - 1)
    inv = [0] * n

    def row_one_exceeds_best(k: int) -> bool:
        # labels 0..k are handed out; compare cells (1, 1..k) with best
        row = rows[inv[1]]
        for b in range(1, k + 1):
            v = row[inv[b]]
            code = 255 if v is None else pi[v]
            ref = best[n + b - 1]
            if code < 0:
                return k + 1 > ref
            if code != ref:
                return code > ref
        return False

    def dfs(k: int, stab: Sequence[Sequence[int]]) -> None:
        # stab: the automorphisms fixing every element labeled so far
        nonlocal best, best_pi
        if k == n:
            lin = _linearize(alg, pi, inv, best)
            if lin is not None and (lin < best or pi < best_pi):
                best, best_pi = lin, pi[:]
            return
        seen = 0
        for y in range(1, n):
            if pi[y] < 0 and not seen >> y & 1:
                for g in stab:
                    seen |= 1 << g[y]
                pi[y], inv[k] = k, y
                if not row_one_exceeds_best(k):
                    dfs(k + 1, [g for g in stab if g[y] == y])
                pi[y] = -1

    dfs(1, automorphisms)
    base = best_pi
    for g in automorphisms:
        coset_pi = [base[x] for x in g]
        if coset_pi < best_pi:
            best_pi = coset_pi
    return best, permute(alg, best_pi)


def canonical_form(alg: FiniteEffectAlgebra) -> bytes:
    """Relabeling-invariant key: equal forms iff isomorphic (for valid tables).

    It is meant for enumerated orders.  The cost grows with the automorphism
    group, which the search does not prune: ``boolean:4`` (16 elements)
    tries 20,161 relabelings in about 0.75 s, and ``even_subsets:6`` (32
    elements) ran past 60 s.
    """
    return canonicalize(alg)[0]


# ---------------------------------------------------------------------------
# supplement involutions and their centralizers


def _canonical_sigma(n: int, pairs: int) -> tuple[int, ...]:
    """Involution on the middle elements: (1,2)...(2k-1,2k), rest fixed."""
    sigma = list(range(n))
    for i in range(pairs):
        sigma[2 * i + 1], sigma[2 * i + 2] = 2 * i + 2, 2 * i + 1
    return tuple(sigma)


def _centralizer_perms(n: int, sigma: Sequence[int]) -> list[tuple[int, ...]]:
    """Permutations fixing 0 and n-1 that commute with sigma (identity excluded).

    With k pairs in sigma these are all k!·2^k·(n-2-2k)! - 1 nontrivial
    elements of its centralizer.  Every isomorphism between two tables of
    the stratum fixes 0 and the unit and carries supplements to
    supplements, so it lies in this group; lex-min pruning over the whole
    group therefore keeps exactly one leaf per isomorphism class.
    """
    mid = list(range(1, n - 1))
    pairs = sorted({tuple(sorted((a, sigma[a]))) for a in mid if sigma[a] != a})
    fixed = [a for a in mid if sigma[a] == a]
    out: list[tuple[int, ...]] = []
    for pair_order in itertools.permutations(range(len(pairs))):
        for flips in itertools.product((False, True), repeat=len(pairs)):
            for fixed_img in itertools.permutations(fixed):
                pi = list(range(n))
                for slot, which in enumerate(pair_order):
                    a, b = pairs[slot]
                    ta, tb = pairs[which]
                    if flips[slot]:
                        ta, tb = tb, ta
                    pi[a], pi[b] = ta, tb
                for src, dst in zip(fixed, fixed_img):
                    pi[src] = dst
                tpi = tuple(pi)
                if tpi != tuple(range(n)):
                    out.append(tpi)
    return out


# ---------------------------------------------------------------------------
# the backtracking search over one supplement stratum


def _relabelings(n: int, sigma: Sequence[int],
                 free: Sequence[tuple[int, int]]) -> list[tuple[bytes, bytes, bytes]]:
    """Each nontrivial element g of the centralizer of sigma as three byte maps.

    ``image[i]`` and ``preimage[i]`` are the free-cell indices of the g-image
    and the g-preimage of free cell i, and ``preimage`` ends in the sentinel
    ``len(free)``.  ``values`` is g on the carrier followed by n, the code of
    "undefined", which g fixes.  The elements are those of
    ``_centralizer_perms``, in its order.
    """
    nfree = len(free)
    if n * n > 256:
        raise ValueError(f"cell maps cover carriers of at most 16 elements, not {n}")
    # cell_of[a*n + b] is the index of the free cell (a, b) or (b, a).  Each
    # byte of a*n and b is below 256 and so is their sum, so two byte strings
    # add bytewise as big integers, without carries.
    cell_of = bytearray(256)
    for i, (a, b) in enumerate(free):
        cell_of[a * n + b] = cell_of[b * n + a] = i
    rows = bytes([a for a, _ in free])
    cols = bytes([b for _, b in free])
    times_n = bytes([x * n for x in range(n)]).ljust(256, b"\0")
    cells = bytes(range(nfree + 1))
    sentinel = bytes((nfree,))
    undef = bytes((n,))
    out = []
    for pi in _centralizer_perms(n, sigma):
        values = bytes(pi) + undef
        table = values.ljust(256, b"\0")
        keys = int.from_bytes(rows.translate(table).translate(times_n), "big") \
            + int.from_bytes(cols.translate(table), "big")
        image = keys.to_bytes(nfree, "big").translate(cell_of)
        # the inverse cell permutation, with the sentinel fixed
        preimage = bytes.maketrans(image + sentinel, cells)[:nfree + 1]
        out.append((image, preimage, values))
    return out


def _search_stratum(n: int, sigma: Sequence[int]) -> list[tuple[bytes, FiniteEffectAlgebra]]:
    one = n - 1
    tab = [_UNKNOWN] * (n * n)  # tab[a*n+b] == tab[b*n+a]: the symmetric sum table
    pre: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    held = [0] * n  # held[a]: bitmask of the values placed in row a

    def place(a: int, b: int, w: int) -> bool:
        tab[a * n + b] = tab[b * n + a] = w
        if w >= 0:
            pre[w].append((a, b))
            held[a] |= 1 << w
            if a != b:
                pre[w].append((b, a))
                held[b] |= 1 << w
        return _consistent(a, b, w)

    def unplace(a: int, b: int) -> None:
        w = tab[a * n + b]
        tab[a * n + b] = tab[b * n + a] = _UNKNOWN
        if w >= 0:
            pre[w].pop()
            held[a] &= ~(1 << w)
            if a != b:
                pre[w].pop()
                held[b] &= ~(1 << w)

    def clash(p: int, z: int, x: int, t: int) -> bool:
        # Do the sides p+z and x+t of one instance contradict each other?  A
        # side is a value, _UNDEF or _UNKNOWN, and a negative inner sum p or
        # t makes its side that.  A value clashes with a different value, with
        # _UNDEF, and with an unknown cell whose row or column already holds
        # it (cancellation).
        left = tab[p * n + z] if p >= 0 else p
        right = tab[x * n + t] if t >= 0 else t
        if left >= 0:
            if right == _UNKNOWN:
                return t >= 0 and (held[x] | held[t]) >> left & 1
            return right != left
        if right >= 0:
            if left == _UNKNOWN:
                return p >= 0 and (held[p] | held[z]) >> right & 1
            return True
        return False

    def _consistent(u: int, v: int, w: int) -> bool:
        # Close every instance (x+y)+z = x+(y+z) that touches the new cell.
        # The new cell inside x+(y+z) is the new cell inside (z+y)+x, so the
        # two positions below, in both orientations, cover every instance.
        for a, b in ((u, v),) if u == v else ((u, v), (v, u)):
            for z in range(n):            # new cell as x+y, with (x, y) = (a, b)
                if clash(w, z, a, tab[b * n + z]):
                    return False
            for x, y in pre[a]:           # new cell as (x+y)+z, with x+y = a, z = b
                if clash(a, b, x, tab[y * n + b]):
                    return False
        return True

    # Pins.  Any failure here would mean the stratum is empty.
    pins: list[tuple[int, int, int]] = [(0, x, x) for x in range(n)]
    pins += [(a, sigma[a], one) for a in range(1, n - 1) if a <= sigma[a]]
    pins += [(a, one, _UNDEF) for a in range(1, n)]
    for a, b, w in pins:
        if not place(a, b, w):
            return []

    free = [(a, b) for a in range(1, n - 1) for b in range(a, n - 1) if sigma[a] != b]
    # The pins put a and the unit in every middle row a, so the cancellation
    # check in dfs bars a + b from a, b and the unit.
    values = [*range(1, n - 1), _UNDEF]

    # waiting[i] holds the relabelings g whose image ties the decided prefix
    # up to a cell p whose preimage, cell i, is undecided: they wait for dfs
    # to decide cell i.  The cells are decided in order, so each g waits on
    # one list, and waiting[nfree] holds those tied to the end.
    nfree = len(free)
    waiting: list[list[tuple[bytes, bytes, bytes]]] = [[] for _ in range(nfree + 1)]
    for g in _relabelings(n, sigma, free):
        waiting[g[1][0]].append(g)

    codes = bytearray(nfree)  # codes[i]: the value decided in free cell i, n if undefined
    found: list[tuple[bytes, FiniteEffectAlgebra]] = []

    def emit() -> None:
        table = tuple(tuple(None if w < 0 else w for w in tab[a * n:(a + 1) * n])
                      for a in range(n))
        model = FiniteEffectAlgebra(n, one, table)
        if not validate(model).valid:
            raise InvariantViolation(
                f"enumeration produced an invalid table (engine defect): {model.entries()}")
        # Every automorphism fixes 0 and 1 and commutes with sigma, so it is
        # in the centralizer; the relabelings tied to the end map the table
        # onto itself, so they are the whole group but the identity.
        found.append(canonicalize(model, automorphisms=[g[2][:n] for g in waiting[nfree]]))

    def dfs(i: int) -> None:
        if i == nfree:
            emit()
            return
        a, b = free[i]
        taken = held[a] | held[b]
        watched = waiting[i]
        for w in values:
            if w >= 0 and taken >> w & 1:
                continue  # cancellation: a + b = w would repeat w in row a or b
            if place(a, b, w):
                codes[i] = n if w < 0 else w
                moved: list[int] = []
                for g in watched:
                    # Resume comparing g's image of the prefix with the prefix
                    # at the image of cell i, up to the next undecided preimage.
                    image, preimage, vmap = g
                    p = image[i]
                    k = i
                    while k <= i:
                        img, cur = vmap[codes[k]], codes[p]
                        if img != cur:
                            break
                        p += 1
                        k = preimage[p]
                    else:
                        waiting[k].append(g)
                        moved.append(k)
                        continue
                    if img < cur:
                        break  # some relabeling is strictly smaller: prune
                    # g's image is greater; g drops out below this node
                else:
                    dfs(i + 1)
                for k in moved:
                    waiting[k].pop()
            unplace(a, b)

    dfs(0)
    return found


def enumerate_up_to_iso(n: int) -> list[FiniteEffectAlgebra]:
    """All effect algebras on n elements, one canonical model per class.

    Output is sorted by canonical form, and each model is its own canonical
    representative (equal tables iff isomorphic).
    """
    if not 2 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: need 2 <= n <= {ENUMERATION_CAP}")
    by_form: dict[bytes, FiniteEffectAlgebra] = {}
    for pairs in range((n - 2) // 2 + 1):
        for form, model in _search_stratum(n, _canonical_sigma(n, pairs)):
            if form in by_form:
                raise InvariantViolation(
                    f"two order-{n} leaves share one canonical form (incomplete symmetry pruning)")
            by_form[form] = model
    forms = sorted(by_form)
    ordered = [by_form[f]._replace(name=f"enum:{n}:{i}") for i, f in enumerate(forms)]
    if any(_linearize(m, range(n), range(n), None) != f for f, m in zip(forms, ordered)):
        raise InvariantViolation(f"an order-{n} model is not its own canonical representative")
    return ordered


def count(n: int) -> dict[int, int]:
    """Isomorphism-class counts for every order from 2 to n."""
    return {k: len(enumerate_up_to_iso(k)) for k in range(2, n + 1)}


# ---------------------------------------------------------------------------
# constrained search


class _SearchConstraintFields(NamedTuple):
    required: frozenset[str]
    forbidden: frozenset[str]
    max_size: int


class SearchConstraint(_SearchConstraintFields):
    """Properties a searched model must have and must lack, and the largest
    order to search; the fields are checked whenever one is built, by
    ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, required: frozenset[str], forbidden: frozenset[str],
                max_size: int) -> "SearchConstraint":
        unknown = (required | forbidden) - set(PROFILE_FLAGS)
        if unknown:
            raise ValueError(f"unknown property names: {', '.join(sorted(unknown))}; "
                             f"known: {', '.join(PROFILE_FLAGS)}")
        if not 2 <= max_size <= ENUMERATION_CAP:
            raise ValueError(f"max_size must lie in 2..{ENUMERATION_CAP}")
        return super().__new__(cls, required, forbidden, max_size)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "SearchConstraint":
        # NamedTuple's _replace builds through _make, which skips __new__
        return cls(*iterable)


class SearchResult(NamedTuple):
    model: FiniteEffectAlgebra | None
    certificate: str


def search(constraint: SearchConstraint) -> SearchResult:
    """First enumerated model matching the constraint, else a negative certificate."""
    scanned = 0
    for size in range(2, constraint.max_size + 1):
        for model in enumerate_up_to_iso(size):
            scanned += 1
            flags = profile(model).flags()
            if all(flags[p] for p in constraint.required) and \
                    not any(flags[p] for p in constraint.forbidden):
                return SearchResult(model, f"found at order {size} after scanning {scanned} models")
    return SearchResult(None, f"no model of order <= {constraint.max_size} "
                              f"({scanned} isomorphism classes scanned)")
