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
  sum (x+y)+z, in both orientations, and compare both sides each time.
  Each row keeps bitmasks of its values and of its columns decided defined
  and decided undefined, so a new undefined cell a+b is closed as x+y by
  one mask test (some a+(b+z) is defined), a new value w fails at once when
  some w+z is defined while b+z is undefined, and otherwise only the z with
  b+z defined are visited: an instance whose inner sum is unknown, or whose
  two sides are both undefined or unknown, cannot contradict;
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
* surviving leaves are canonically labelled; the pruning ranges over the
  whole centralizer, so it keeps exactly one leaf per class, and two
  leaves with one canonical form raise ``InvariantViolation``;
* the relabelings whose image ties the whole table at a leaf map it onto
  itself, so they are its whole automorphism group but the identity, and
  the labeller receives them to try one new label per orbit;
* each class is relabelled once, into the emitted model with its final
  name, and that model is validated once (its memoised report is the one
  later analyses read) and checked to be its own canonical representative,
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

from .core import FiniteEffectAlgebra, InvariantViolation, partners, validate
from .properties import PROFILE_FLAGS, profile

ENUMERATION_CAP = 10

_UNKNOWN = -2
_UNDEF = -1


def permute(alg: FiniteEffectAlgebra, pi: Sequence[int], *,
            name: str | None = None) -> FiniteEffectAlgebra:
    """Relabel a table along a carrier permutation with pi[0] == 0.

    The image keeps the name of ``alg`` unless ``name`` is given.
    """
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
    return FiniteEffectAlgebra(n, pi[alg.one], table, labels,
                               alg.name if name is None else name)


def _linearize(alg: FiniteEffectAlgebra, pi: Sequence[int], inv: Sequence[int]) -> bytes:
    """Linearization of the pi-image table: cells (a, b), a <= b, row by row.

    Each cell is one byte and 255 codes "undefined", so carriers of more
    than 255 elements raise ``ValueError``.
    """
    n = alg.size
    if n > 255:
        raise ValueError(f"canonical forms cover carriers of at most 255 elements, not {n}")
    rows = alg.table
    out = bytearray()
    for a in range(n):
        row = rows[inv[a]]
        for b in range(a, n):
            v = row[inv[b]]
            out.append(255 if v is None else pi[v])
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


def canonicalize(alg: FiniteEffectAlgebra, *, automorphisms: Sequence[Sequence[int]] = ()
                 ) -> tuple[bytes, list[int]]:
    """Canonical form and the least relabeling pi that yields it.

    The form is the lexicographically least linearization over every
    carrier permutation pi fixing 0, and pi is the least such permutation
    (the first in ``itertools.permutations`` order), as a list:
    ``permute(alg, pi)`` is the canonically relabeled model.  The
    greedy labeling of ``_greedy_labeling`` gives the first bound ``best``,
    and a depth-first search hands out the new labels 1, 2, ..., n-1 in
    turn.  After label k it reads the relabeled table in linearization
    order, from where its parent stopped, up to the first cell whose code
    is not known yet.  A cell (a, b) with a, b <= k is known when its sum
    is undefined (255) or labeled.  A row a <= k whose element x has no
    unlabeled partner in ``partners(alg)[x]`` reads 255 to its end, so the
    reading runs on into row a + 1.  The first open cell is bounded below:
    by k + 1 when its sum is unlabeled, and in column k + 1 of row a by the
    least code of x + y over the unlabeled y, where x holds label a and an
    unlabeled sum counts as k + 1.  A subtree is cut only when a known cell
    or that bound exceeds ``best`` after an equal prefix, so every leaf
    below it is worse than ``best``; every minimising pi is reached, and the
    result equals that of trying all (n-1)! relabelings.  A child may
    resume where its parent stopped because ``best`` only falls, and each
    table that replaced it since then is a leaf below the parent, equal to
    it on the cells read.  This reading is the only comparison with
    ``best``: a leaf is linearized whole only when it read strictly less.

    ``automorphisms`` may hand over the automorphism group of ``alg``: each
    g as a tuple with ``alg`` mapped onto itself by a -> g[a].  It must be
    the whole group (the identity may be left out); a proper subgroup can
    yield the wrong relabeling.  The search then tries one element per
    orbit of the automorphisms that fix every element labeled so far, since
    g carries the subtrees of a and g[a] onto each other, and returns the
    least pi o g over the group: the minimising permutations are exactly
    one such coset.  The form and pi equal those found without it.

    Carriers of more than 255 elements raise ``ValueError`` (see ``_linearize``).
    """
    n = alg.size
    rows = alg.table
    best_pi, inv = _greedy_labeling(rows)
    best = _linearize(alg, best_pi, inv)
    pairs = partners(alg)  # pi[0] = 0, so the y = 0 they hold reads as labeled
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
                for y, v in pairs[x]:
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
                best, best_pi = _linearize(alg, pi, inv), pi[:]
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
    return best, best_pi


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
    # The carrier laid out pairs first, then the fixed points; an element
    # is written as its images in that layout and read back in carrier order.
    layout = [0, *(a for pair in pairs for a in pair), *fixed, n - 1]
    read = operator.itemgetter(*map(layout.index, range(n)))
    pair_images = []
    for pair_order in itertools.permutations(range(len(pairs))):
        for flips in itertools.product((False, True), repeat=len(pairs)):
            images: list[int] = []
            for which, flip in zip(pair_order, flips):
                ta, tb = pairs[which]
                images += (tb, ta) if flip else (ta, tb)
            pair_images.append((0, *images))
    unit = (n - 1,)
    out = [read(head + fixed_img + unit) for head in pair_images
           for fixed_img in itertools.permutations(fixed)]
    del out[0]  # the identity
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


def _search_stratum(n: int, sigma: Sequence[int]
                    ) -> list[tuple[bytes, tuple[FiniteEffectAlgebra, list[int]]]]:
    one = n - 1
    tab = [_UNKNOWN] * (n * n)  # tab[a*n+b] == tab[b*n+a]: the symmetric sum table
    pre: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    held = [0] * n  # held[a]: bitmask of the values placed in row a
    defd = [0] * n  # defd[a]: bitmask of the columns b with a + b decided and defined
    undf = [0] * n  # undf[a]: bitmask of the columns b with a + b decided undefined
    members: list[tuple[int, ...]] = [()]  # members[m]: the elements of bitmask m
    for z in range(n):
        members += [elems + (z,) for elems in members]

    def place(a: int, b: int, w: int) -> bool:
        # Decide a + b = w and close every instance (x+y)+z = x+(y+z) that
        # touches the new cell; False on a contradiction.  The cell stays
        # decided either way, for the caller to undo.  The new cell inside
        # x+(y+z) is the new cell inside (z+y)+x, so the new cell as x+y
        # and as the outer sum (x+y)+z, in both orientations, covers every
        # instance.  A side is a value, _UNDEF or _UNKNOWN; a value clashes
        # with a different value, with _UNDEF, and with an unknown cell
        # whose row or column already holds it (cancellation).
        tab[a * n + b] = tab[b * n + a] = w
        sides = ((a, b),) if a == b else ((a, b), (b, a))
        if w < 0:
            undf[a] |= 1 << b
            undf[b] |= 1 << a
            for p, q in sides:
                if held[q] & defd[p]:
                    return False  # some p+(q+z) is defined, which needs p+q defined
                for x, y in pre[p]:  # (x+y)+q with x+y = p: x+(y+q) must be undefined
                    t = tab[y * n + q]
                    if t >= 0 and defd[x] >> t & 1:
                        return False
            return True
        pre[w].append((a, b))
        held[a] |= 1 << w
        defd[a] |= 1 << b
        if a != b:
            pre[w].append((b, a))
            held[b] |= 1 << w
            defd[b] |= 1 << a
        w_row = w * n
        for p, q in sides:
            # the new cell as x+y: w+z against p+(q+z), for every z
            if defd[w] & undf[q]:
                return False  # w+z is defined, q+z is not
            p_row = p * n
            q_row = q * n
            for z in members[defd[q]]:
                t = tab[q_row + z]
                left = tab[w_row + z]
                right = tab[p_row + t]
                if left >= 0:
                    if right != left and (right != _UNKNOWN or (held[p] | held[t]) >> left & 1):
                        return False
                elif right >= 0 and (left == _UNDEF or (held[w] | held[z]) >> right & 1):
                    return False
            # the new cell as (x+y)+z with x+y = p, z = q: w against x+(y+q)
            for x, y in pre[p]:
                t = tab[y * n + q]
                if t >= 0:
                    right = tab[x * n + t]
                    if right != w and (right != _UNKNOWN or (held[x] | held[t]) >> w & 1):
                        return False
                elif t == _UNDEF:
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
    # A free cell holds a middle element or is undefined; middle is the
    # bitmask of the middle elements.  The pins put a and the unit in every
    # middle row a, so the cancellation check in dfs bars a + b from a, b
    # and the unit.
    middle = (1 << (n - 1)) - 2

    # waiting[i] holds the relabelings g whose image ties the decided prefix
    # up to a cell p whose preimage, cell i, is undecided: they wait for dfs
    # to decide cell i.  The cells are decided in order, so each g waits on
    # one list, and waiting[nfree] holds those tied to the end.
    nfree = len(free)
    waiting: list[list[tuple[bytes, bytes, bytes]]] = [[] for _ in range(nfree + 1)]
    for g in _relabelings(n, sigma, free):
        waiting[g[1][0]].append(g)

    codes = bytearray(nfree)  # codes[i]: the value decided in free cell i, n if undefined
    found: list[tuple[bytes, tuple[FiniteEffectAlgebra, list[int]]]] = []

    def emit() -> None:
        table = tuple(tuple(None if w < 0 else w for w in tab[a * n:(a + 1) * n])
                      for a in range(n))
        leaf = FiniteEffectAlgebra(n, one, table)
        # Every automorphism fixes 0 and 1 and commutes with sigma, so it is
        # in the centralizer; the relabelings tied to the end map the table
        # onto itself, so they are the whole group but the identity.
        form, pi = canonicalize(leaf, automorphisms=[g[2][:n] for g in waiting[nfree]])
        found.append((form, (leaf, pi)))

    def dfs(i: int) -> None:
        if i == nfree:
            emit()
            return
        a, b = free[i]
        watched = waiting[i]
        # the middle values not yet in row a or b (cancellation), then undefined
        for w in members[middle & ~(held[a] | held[b])] + (_UNDEF,):
            if place(a, b, w):
                code = codes[i] = n if w < 0 else w
                moved: list[int] = []
                for g in watched:
                    # Resume comparing g's image of the prefix with the prefix
                    # at the image of cell i, up to the next undecided preimage.
                    image, preimage, vmap = g
                    p = image[i]
                    img = vmap[code]
                    while img == codes[p]:
                        p += 1
                        k = preimage[p]
                        if k > i:  # tied up to an undecided preimage: wait for it
                            waiting[k].append(g)
                            moved.append(k)
                            break
                        img = vmap[codes[k]]
                    else:
                        if img < codes[p]:
                            break  # some relabeling is strictly smaller: prune
                        # g's image is greater; g drops out below this node
                else:
                    dfs(i + 1)
                for k in moved:
                    waiting[k].pop()
            # undo the cell
            tab[a * n + b] = tab[b * n + a] = _UNKNOWN
            if w < 0:
                undf[a] &= ~(1 << b)
                undf[b] &= ~(1 << a)
            else:
                pre[w].pop()
                held[a] &= ~(1 << w)
                defd[a] &= ~(1 << b)
                if a != b:
                    pre[w].pop()
                    held[b] &= ~(1 << w)
                    defd[b] &= ~(1 << a)

    dfs(0)
    return found


def enumerate_up_to_iso(n: int) -> list[FiniteEffectAlgebra]:
    """All effect algebras on n elements, one canonical model per class.

    Output is sorted by canonical form, and each model is its own canonical
    representative (equal tables iff isomorphic).
    """
    if not 2 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: need 2 <= n <= {ENUMERATION_CAP}")
    by_form: dict[bytes, tuple[FiniteEffectAlgebra, list[int]]] = {}
    for pairs in range((n - 2) // 2 + 1):
        for form, labelled in _search_stratum(n, _canonical_sigma(n, pairs)):
            if form in by_form:
                raise InvariantViolation(
                    f"two order-{n} leaves share one canonical form (incomplete symmetry pruning)")
            by_form[form] = labelled
    ordered = []
    for i, form in enumerate(sorted(by_form)):
        leaf, pi = by_form.pop(form)  # popped: each leaf is freed once its model is built
        model = permute(leaf, pi, name=f"enum:{n}:{i}")
        # Validated once, after labelling: the relabelled table is
        # isomorphic to the leaf, and the memoised report is the one that
        # profile and run_all read.
        if not validate(model).valid:
            raise InvariantViolation(
                f"enumeration produced an invalid table (engine defect): {model.entries()}")
        if _linearize(model, range(n), range(n)) != form:
            raise InvariantViolation(f"an order-{n} model is not its own canonical representative")
        ordered.append(model)
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
