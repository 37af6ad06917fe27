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
least relabeled table.  A branch and bound finds it exactly.  A greedy
dive gives the first table to beat; the search then hands out new labels
in order, reads the relabeled table as far as a partial labeling decides
it, row after row, and cuts the labeling only when that prefix, or a lower
bound on the first cell it leaves open, is provably greater than the best
table found, so no least labeling is ever cut.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Iterable, NamedTuple, Sequence

from .core import FiniteEffectAlgebra, InvariantViolation, validate
from .properties import PROFILE_FLAGS, profile

ENUMERATION_CAP = 10

_UNKNOWN = -2
_UNDEF = -1


def permute(alg: FiniteEffectAlgebra, pi: Sequence[int]) -> FiniteEffectAlgebra:
    """Relabel a table along a carrier permutation with pi[0] == 0."""
    n = alg.size
    if sorted(pi) != list(range(n)) or pi[0] != 0:
        raise ValueError("need a carrier permutation fixing 0")
    inv = [0] * n
    for x, label in enumerate(pi):
        inv[label] = x
    # row pi[x] of the image is row x read in the order of inv, values relabeled
    image: dict[int | None, int | None] = dict(enumerate(pi))
    image[None] = None
    read = operator.itemgetter(*inv)
    rows = alg.table
    table = tuple(tuple(map(image.__getitem__, read(rows[x]))) for x in inv)
    labels = read(alg.labels) if alg.labels else ()
    return FiniteEffectAlgebra(n, pi[alg.one], table, labels, alg.name)


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


def _greedy_labeling(rows: Sequence[Sequence[int | None]]) -> tuple[list[int], list[int]]:
    """A first labeling for the branch and bound to beat, as pi and its inverse.

    Labels 1, 2, ... go out in turn, label k to the unlabeled element y
    whose cells (a, b) with 1 <= a <= b <= k read least in the order of the
    linearization, counting an unlabeled sum as above k.  They differ from
    one choice of y to the next only where y sits: in a cell whose sum is y
    (code k) and in column k.
    """
    n = len(rows)
    pi = [0] + [-1] * (n - 1)
    inv = [0] * n
    unlabeled = list(range(1, n))
    pending: list[list[int]] = [[] for _ in range(n)]  # unlabeled sums in row a, by column
    for k in range(1, n):
        cands = unlabeled
        for a in range(1, k + 1):
            if len(cands) == 1:
                break
            for v in pending[a]:
                if pi[v] < 0 and v in cands:
                    cands = [v]  # label k is the least this cell can read
                    break
            else:  # cell (a, k), with y in column k
                row = rows[inv[a]]
                codes = []
                for y in cands:
                    v = rows[y][y] if a == k else row[y]
                    codes.append(255 if v is None else k + 1 if pi[v] < 0 else pi[v])
                low = min(codes)
                cands = [y for y, c in zip(cands, codes) if c == low]
        y = cands[0]
        pi[y], inv[k] = k, y
        unlabeled.remove(y)
        for a in range(1, k + 1):
            v = rows[inv[a]][y]
            if v is not None and pi[v] < 0:
                pending[a].append(v)
    return pi, inv


def canonicalize(alg: FiniteEffectAlgebra, *,
                 automorphisms: Sequence[Sequence[int]] = ()) -> tuple[bytes, FiniteEffectAlgebra]:
    """Canonical form and the canonically relabeled model.

    The form is the lexicographically least linearization over every
    carrier permutation pi fixing 0, and the model is relabeled along the
    least such pi (the first in ``itertools.permutations`` order).  The
    greedy labeling of ``_greedy_labeling`` gives the first bound ``best``,
    and a depth-first search hands out the new labels 1, 2, ..., n-1 in
    turn.  After label k it reads the relabeled table in linearization
    order, from where its parent stopped, up to the first cell whose code
    is not known yet.  A cell (a, b) with a, b <= k is known when its sum
    is undefined (255) or labeled.  A row a <= k whose element has no
    defined sum with an unlabeled element reads 255 to its end, so the
    reading runs on into row a + 1.  The first open cell is bounded below:
    by k + 1 when its sum is unlabeled, and in column k + 1 of row a by the
    least code of x + y over the unlabeled y, where x holds label a and an
    unlabeled sum counts as k + 1.  A subtree is cut only when a known cell
    or that bound exceeds ``best`` after an equal prefix, so every leaf
    below it is worse than ``best``; every minimising pi is reached, and the
    result equals that of trying all (n-1)! relabelings.  A child may
    resume where its parent stopped because ``best`` only falls, and each
    table that replaced it since then is a leaf below the parent, equal to
    it on the cells read.

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
    rows = alg.table
    best_pi, inv = _greedy_labeling(rows)
    best = _linearize(alg, best_pi, inv, None)
    assert best is not None
    # partners[x]: (y, x + y) for every y with a defined sum, y != 0
    partners = [[(y, v) for y, v in enumerate(row) if y and v is not None] for row in rows]
    # cell (a, b) of the relabeled table sits at best[start[a] + b]
    start = [a * n - a * (a + 1) // 2 for a in range(n)]
    pi = [0] + [-1] * (n - 1)

    def walk(k: int, a: int, b: int) -> tuple[int, int] | None:
        # Labels 0..k are handed out and cells before (a, b) equal best.
        # Compare on to the first cell whose code is not known yet; None
        # when a known code or that cell's lower bound exceeds best.
        while a <= k:
            x = inv[a]
            if b <= k:
                v = rows[x][inv[b]]
                code = 255 if v is None else pi[v]
                if code < 0:  # an unlabeled sum gets a label above k
                    return None if k + 1 > best[start[a] + b] else (a, b)
                ref = best[start[a] + b]
                if code != ref:
                    return None if code > ref else (a, b)
                b += 1
                continue
            if b < n:  # label b goes to an element not labeled yet
                low = 255
                for y, v in partners[x]:
                    if pi[y] < 0:
                        code = pi[v] if pi[v] >= 0 else k + 1
                        if code < low:
                            low = code
                if low < 255:
                    return None if low > best[start[a] + b] else (a, b)
                # x + y is undefined for every unlabeled y: the rest of row
                # a reads 255, the greatest code, and so must best
                if best.count(255, start[a] + b, start[a] + n) < n - b:
                    return None
            a += 1
            b = a
        return a, b

    def dfs(k: int, stab: Sequence[Sequence[int]], a: int, b: int) -> None:
        # stab: the automorphisms fixing every element labeled so far; the
        # relabeled table equals best before cell (a, b)
        nonlocal best, best_pi
        if k == n:
            if a < n:  # strictly less than best at cell (a, b)
                best, best_pi = _linearize(alg, pi, inv, None), pi[:]
            elif pi < best_pi:
                best_pi = pi[:]
            return
        seen = 0
        for y in range(1, n):
            if pi[y] < 0 and not seen >> y & 1:
                for g in stab:
                    seen |= 1 << g[y]
                pi[y], inv[k] = k, y
                cell = walk(k, a, b)
                if cell is not None:
                    dfs(k + 1, [g for g in stab if g[y] == y], *cell)
                pi[y] = -1

    dfs(1, automorphisms, 1, 1)
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
    takes about 0.4 s (89,619 search nodes, all 24 least labelings
    reached), and ``even_subsets:6`` (32 elements) about 44 s, in CPU time
    on one core of a 2-vCPU VM.
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
