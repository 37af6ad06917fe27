"""Finite effect algebras: axioms, validation, and the induced order.

An effect algebra is a carrier with distinguished elements 0 and 1 and a
partial commutative sum.  Writing D(a, b) for "a + b is defined", the
defining laws are

  A1  D(a, b) implies D(b, a) and a + b = b + a,
  A2  if D(a, b) and D(a + b, c) then D(b, c), D(a, b + c) and
      (a + b) + c = a + (b + c)          (strong partial associativity),
  A3  every a has exactly one a' with a + a' = 1 (the orthosupplement),
  A4  D(a, 1) implies a = 0.

The induced order is a <= b iff b = a + c for some c; 0 is bottom, 1 is
top, and the witness c is unique.  a and b are orthogonal iff D(a, b),
equivalently iff a <= b'.

Tables are stored as the full symmetric n×n table of sums, and the
constructor refuses a table that is not symmetric, so A1 is a property of
every model rather than something to check.  ``None`` marks an undefined
sum; undefined is never encoded as a sentinel element index.
Element 0 is always stored at index 0; the unit index is declared.

Models are immutable and hashable; every operation in this module is a
pure function of its inputs, so models can be shared across threads.
Derived facts (validation report, order, classification, ...) are
memoised on the model object by ``per_model`` and live as long as it does.
The memo is write-once and takes no part in equality, hashing or repr, so
an analysed model still pickles, and compares and hashes like a fresh one;
``_replace`` and the other copying constructors start empty.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import wraps
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple


# A finite multiset of elements: mapping element -> multiplicity >= 1
# (collections.Counter fits); plain iterables of elements work everywhere too.
Multiset = Mapping[int, int]


class InvalidModelError(ValueError):
    """An operation that requires a valid effect algebra got an invalid table."""


class InvariantViolation(RuntimeError):
    """A fact that is a theorem for valid models failed to hold.

    This always indicates a defect in this package (or a model that slipped
    past validation), never a mathematical discovery.
    """


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteEffectAlgebra:
    """A finite partial-sum table with designated zero (index 0) and unit.

    ``table`` is the symmetric sum table: ``table[a][b]`` and
    ``table[b][a]`` both hold the sum a + b, or ``None``.
    ``labels`` and ``name`` are presentation only and do not take part in
    equality or hashing.  Attributes cannot be assigned or deleted; copy
    with changes through ``_replace``.
    """

    size: int
    one: int
    table: tuple[tuple[int | None, ...], ...]
    labels: tuple[str, ...]
    name: str
    _memo: dict[str, Any]

    def __init__(self, size: int, one: int, table: tuple[tuple[int | None, ...], ...],
                 labels: tuple[str, ...] = (), name: str = "") -> None:
        n = size
        if n < 2:
            raise ValueError("an effect algebra needs at least the two elements 0 and 1")
        if not 1 <= one < n:
            raise ValueError(f"unit index {one} out of range (zero is pinned to 0)")
        if not isinstance(table, tuple) or len(table) != n or any(
                not isinstance(row, tuple) or len(row) != n for row in table):
            raise ValueError(f"the sum table must be a tuple of {n} row tuples of {n} cells")
        for a, row in enumerate(table):
            # one column at a time: a transposed copy would double peak memory
            if tuple(map(itemgetter(a), table)) != row:
                raise ValueError(f"the sum table is not symmetric in row {a}")
            for v in row:
                if v is not None and not 0 <= v < n:
                    raise ValueError(f"table entry {v!r} out of range")
        if labels and len(labels) != n:
            raise ValueError("labels must cover the whole carrier")
        # Written straight into the instance dict, as unpickling does:
        # __setattr__ refuses every assignment.
        self.__dict__.update(size=size, one=one, table=table, labels=labels, name=name,
                             _memo={})

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign {name!r}: models are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: models are immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.one, self.table) == (other.size, other.one, other.table)

    def __hash__(self) -> int:
        return hash((self.size, self.one, self.table))

    def _replace(self, **changes: Any) -> "FiniteEffectAlgebra":
        """A new model with some fields changed, checked like any other and
        with an empty memo."""
        return type(self)(**{"size": self.size, "one": self.one, "table": self.table,
                             "labels": self.labels, "name": self.name, **changes})

    @classmethod
    def from_entries(
        cls,
        size: int,
        one: int,
        entries: Mapping[tuple[int, int], int],
        labels: Iterable[str] | None = None,
        name: str = "",
    ) -> "FiniteEffectAlgebra":
        """Build a table from a mapping of pairs (a, b) to c, meaning a + b = c.

        Either orientation of a pair is accepted; conflicting values for the
        same unordered pair raise ``ValueError``.
        """
        rows: list[list[int | None]] = [[None] * size for _ in range(size)]
        for (a, b), c in entries.items():
            if not (0 <= a < size and 0 <= b < size and 0 <= c < size):
                raise ValueError(f"entry ({a},{b})={c} out of range for size {size}")
            prev = rows[a][b]
            if prev is not None and prev != c:
                lo, hi = (a, b) if a <= b else (b, a)
                raise ValueError(f"conflicting sums for pair ({lo},{hi}): {prev} vs {c}")
            rows[a][b] = rows[b][a] = c
        return cls(size, one, tuple(map(tuple, rows)), tuple(labels or ()), name)

    def sum_of(self, a: int, b: int) -> int | None:
        """a + b, or ``None`` where undefined; ``ValueError`` off the carrier."""
        n = self.size
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"element pair ({a}, {b}) out of range for carrier of size {n}")
        return self.table[a][b]

    def defined(self, a: int, b: int) -> bool:
        return self.sum_of(a, b) is not None

    def defined_pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (a, b, a + b) over defined cells with a <= b, in index order:
        the upper triangle of ``partners``."""
        return ((a, b, c) for a, row in enumerate(partners(self))
                for b, c in row[bisect_left(row, (a,)):])

    def entries(self) -> dict[tuple[int, int], int]:
        return {(a, b): c for a, b, c in self.defined_pairs()}

    def with_entry(self, a: int, b: int, value: int | None) -> "FiniteEffectAlgebra":
        """Copy with one cell overwritten (``None`` deletes).  For mutation tests."""
        n = self.size
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"element pair ({a}, {b}) out of range for carrier of size {n}")
        rows = list(map(list, self.table))
        rows[a][b] = rows[b][a] = value
        return self._replace(table=tuple(map(tuple, rows)))

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"<FiniteEffectAlgebra{tag} size={self.size} one={self.one}>"


def per_model(fn: Callable[[FiniteEffectAlgebra], Any]) -> Callable[[FiniteEffectAlgebra], Any]:
    """Memoise a one-argument fact of a model on the model object itself."""
    key = fn.__name__  # a string, not fn, so a model with a filled memo still pickles

    @wraps(fn)
    def memoised(alg: FiniteEffectAlgebra) -> Any:
        try:
            return alg._memo[key]
        except KeyError:
            # setdefault keeps the first value if two threads race
            return alg._memo.setdefault(key, fn(alg))

    return memoised


@per_model
def partners(alg: FiniteEffectAlgebra) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The defined cells, the one form in which package code walks them:
    ``partners(alg)[a]`` holds every (b, a + b) with the sum defined,
    ascending in b.  ``defined_pairs`` is a view of it."""
    return tuple(tuple([(b, c) for b, c in enumerate(row) if c is not None])
                 for row in alg.table)


class Violation(NamedTuple):
    axiom: str  # "A1" | "A2" | "A3" | "A4"
    witness: tuple[int, ...]
    message: str


class ValidationReport(NamedTuple):
    valid: bool
    violations: tuple[Violation, ...]

    def axiom_ids(self) -> set[str]:
        return {v.axiom for v in self.violations}


@per_model
def validate(alg: FiniteEffectAlgebra) -> ValidationReport:
    """Check A2, A3 and A4 and report every violation found.

    A1 cannot be violated: the model's constructor refuses a table that is
    not symmetric (and conflicting orientations are rejected when a table
    is built or parsed).  Invalid tables produce a report, never an exception.
    The quantified checks walk ``partners``: instances come in the order of
    a full triple loop, and only defined cells are touched.
    """
    n = alg.size
    one = alg.one
    rows = alg.table
    lab = alg.label
    violations: list[Violation] = []
    pairs = partners(alg)

    # A2, strong form, over all ordered triples with a defined hypothesis.
    for x in range(n):
        x_row = rows[x]
        for y, p in pairs[x]:
            y_row = rows[y]
            for z, q in pairs[p]:
                t = y_row[z]
                if t is None:
                    violations.append(Violation(
                        "A2", (x, y, z),
                        f"({lab(x)}⊕{lab(y)})⊕{lab(z)} is defined but {lab(y)}⊕{lab(z)} is not"))
                    continue
                r = x_row[t]
                if r is None:
                    violations.append(Violation(
                        "A2", (x, y, z),
                        f"({lab(x)}⊕{lab(y)})⊕{lab(z)} is defined but {lab(x)}⊕({lab(y)}⊕{lab(z)}) is not"))
                elif r != q:
                    violations.append(Violation(
                        "A2", (x, y, z),
                        f"({lab(x)}⊕{lab(y)})⊕{lab(z)} = {lab(q)} but {lab(x)}⊕({lab(y)}⊕{lab(z)}) = {lab(r)}"))

    # A3: exactly one orthosupplement per element.
    for a in range(n):
        supplements = [y for y, c in pairs[a] if c == one]
        if not supplements:
            violations.append(Violation(
                "A3", (a,), f"{lab(a)} has no orthosupplement (no x with {lab(a)}⊕x = {lab(one)})"))
        elif len(supplements) > 1:
            names = ", ".join(lab(x) for x in supplements)
            violations.append(Violation(
                "A3", (a, *supplements), f"orthosupplement of {lab(a)} is not unique: {names}"))

    # A4: only 0 may be summed with the unit.
    for a in range(1, n):
        if rows[a][one] is not None:
            violations.append(Violation(
                "A4", (a,), f"{lab(a)}⊕{lab(one)} is defined but {lab(a)} ≠ {lab(0)}"))

    return ValidationReport(not violations, tuple(violations))


def require_valid(alg: FiniteEffectAlgebra) -> None:
    report = validate(alg)
    if not report.valid:
        first = report.violations[0]
        raise InvalidModelError(
            f"not an effect algebra ({len(report.violations)} violations; first: {first.axiom} {first.message})")


class OrderIndex(NamedTuple):
    """Joins, meets and covers of a partial order, read off its masks.

    In a partial order an up-set U has a least element u exactly when
    U == ``up[u]``, and a down-set D a greatest element g exactly when
    D == ``down[g]``; so ``least`` and ``greatest`` map masks back to
    elements.  ``covers[s]`` lists the t with s ⋖ t, ascending.  The index
    is carried by the order it describes and has no other owner.
    """

    least: dict[int, int]
    greatest: dict[int, int]
    covers: tuple[tuple[int, ...], ...]


class OrderRelation(NamedTuple):
    """The induced order of a valid model, with supplement and difference.

    ``up[a]`` / ``down[a]`` are bitmasks of {b : a <= b} / {b : b <= a}.
    ``ominus[a]`` maps each b >= a to the unique c with a + c = b.  ``index``
    is what the walk that checked the order built: joins, meets and covers
    are lookups in it.  It is ``None`` for a relation that is not a partial
    order, and ``_replace(up=...)`` keeps the old one unless ``index=`` is
    passed too.  ``least``, ``greatest`` and ``minimal`` scan a set of
    elements given as a bitmask, for minimal bounds and unindexed relations.
    """

    size: int
    up: tuple[int, ...]
    down: tuple[int, ...]
    supplement: tuple[int, ...]
    ominus: tuple[dict[int, int], ...]
    index: OrderIndex | None

    def le(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def above(self, a: int) -> Iterator[int]:
        return _bits(self.up[a])

    def below(self, a: int) -> Iterator[int]:
        return _bits(self.down[a])

    def least(self, mask: int) -> int | None:
        """The u in ``mask`` below every element of ``mask``, or ``None``."""
        up = self.up
        for u in _bits(mask):
            if not mask & ~up[u]:
                return u
        return None

    def greatest(self, mask: int) -> int | None:
        """The g in ``mask`` above every element of ``mask``, or ``None``."""
        down = self.down
        for g in _bits(mask):
            if not mask & ~down[g]:
                return g
        return None

    def minimal(self, mask: int) -> Iterator[int]:
        """The m in ``mask`` with nothing else of ``mask`` below them, ascending."""
        return (m for m in _bits(mask) if self.down[m] & mask == 1 << m)


def _walk_order(up: tuple[int, ...]) -> tuple[tuple[int, ...], OrderIndex]:
    """Walk each pair a <= b of ``up`` once, raising ``InvariantViolation``
    unless ``up`` is a partial order, and return its transpose and index.

    A b strictly above a must not be below a, and ``up[b]`` must lie inside
    ``up[a]``; the covers of a are the b strictly above no other such b.
    """
    n = len(up)
    down = [1 << a for a in range(n)]
    covers = []
    for a, mask in enumerate(up):
        bit = 1 << a
        if not mask & bit:
            raise InvariantViolation("order not reflexive")
        strict = mask ^ bit
        above = 0
        for b in _bits(strict):
            ub = up[b]
            if ub & bit:
                raise InvariantViolation(f"order not antisymmetric at ({a}, {b})")
            if ub & ~mask:
                raise InvariantViolation(f"order not transitive at ({a}, {b})")
            down[b] |= bit
            above |= ub ^ 1 << b
        covers.append(tuple(_bits(strict & ~above)))
    return tuple(down), OrderIndex({m: u for u, m in enumerate(up)},
                                   {m: g for g, m in enumerate(down)}, tuple(covers))


@per_model
def derive_order(alg: FiniteEffectAlgebra) -> OrderRelation:
    """Derive <=, the orthosupplement map and the partial difference.

    Rejects invalid tables.  The facts that hold for every valid model
    (uniqueness of the difference, partial order, bounds, domain of the
    difference, antitonicity) are re-checked here, in that order, and raise
    ``InvariantViolation`` if the table somehow breaks them.  The order
    carries the index its check built.
    """
    require_valid(alg)
    n = alg.size
    one = alg.one
    up = [1 << a for a in range(n)]
    minus = [{} for _ in range(n)]
    for a, b, c in alg.defined_pairs():
        up[a] |= 1 << c
        up[b] |= 1 << c
        for lo, hi in ((a, b), (b, a)):
            prev = minus[lo].setdefault(c, hi)
            if prev != hi:
                raise InvariantViolation(
                    f"difference not unique: {alg.label(c)} ⊖ {alg.label(lo)} ∈ "
                    f"{{{alg.label(prev)}, {alg.label(hi)}}}")

    up = tuple(up)
    down, index = _walk_order(up)
    full = (1 << n) - 1
    if up[0] != full or up[one] != 1 << one or down[one] != full:
        raise InvariantViolation("0 and 1 are not the bounds of the induced order")

    # The difference is defined exactly on the order.  Every entry c of
    # minus[lo] was written together with bit c of up[lo], so the domain of
    # the difference is a subset of {(a, b) : a <= b}; two finite sets, one
    # inside the other, are equal iff they have the same size.
    if sum(map(len, minus)) != sum(mask.bit_count() for mask in up):
        raise InvariantViolation("difference domain does not match the order")

    # a <= 1, so a′ = 1 ⊖ a; a′′ = a, as no row holds 1 twice (uniqueness)
    supp = tuple(m[one] for m in minus)
    for a in range(n):
        # every a <= b is a chain of covers: antitone along them is antitone
        for b in index.covers[a]:
            if not up[supp[b]] >> supp[a] & 1:
                raise InvariantViolation("orthosupplement is not antitone")

    return OrderRelation(n, up, down, supp, tuple(minus), index)


def index_order(order: OrderRelation) -> OrderIndex | None:
    """The index of the partial order ``up`` of ``order``, built afresh, or
    ``None`` unless ``up`` is reflexive, antisymmetric and transitive and
    ``down`` is its transpose.  ``derive_order`` hands its index over with
    the order; this serves a relation that is put together by hand."""
    try:
        down, index = _walk_order(order.up)
    except InvariantViolation:
        return None
    return index if down == order.down else None


def is_orthogonal(alg: FiniteEffectAlgebra, a: int, b: int) -> bool:
    """True iff a + b is defined; cross-checked against a <= b'."""
    order = derive_order(alg)
    by_table = alg.defined(a, b)
    by_order = order.le(a, order.supplement[b])
    if by_table != by_order:
        raise InvariantViolation(
            f"orthogonality mismatch at ({alg.label(a)}, {alg.label(b)}): "
            f"table says {by_table}, order says {by_order}")
    return by_table


def _check_element(a: int, size: int) -> None:
    if not 0 <= a < size:
        raise ValueError(f"element {a} out of range for carrier of size {size}")


def _as_sorted_elements(items: Iterable[int] | Multiset, size: int) -> list[int]:
    if isinstance(items, Mapping):
        out: list[int] = []
        for v, mult in sorted(items.items()):
            if mult < 0:
                raise ValueError(f"negative multiplicity for element {v}")
            out.extend([v] * mult)
    else:
        out = sorted(items)
    for v in out:
        _check_element(v, size)
    return out


def oplus_multiset(alg: FiniteEffectAlgebra, items: Iterable[int] | Multiset) -> int | None:
    """Fold the partial sum over a multiset; ``None`` if any step is undefined.

    The fold order is immaterial on valid models (a consequence of A1/A2
    exercised by the test suite); this implementation folds in ascending
    element order.  The empty multiset sums to 0.
    """
    rows = alg.table
    acc = 0
    for v in _as_sorted_elements(items, alg.size):
        nxt = rows[acc][v]
        if nxt is None:
            return None
        acc = nxt
    return acc


def _bound_mask(alg: FiniteEffectAlgebra, elems: Iterable[int], upper: bool) -> int:
    order = derive_order(alg)
    mask = (1 << alg.size) - 1
    for s in elems:
        _check_element(s, alg.size)
        mask &= order.up[s] if upper else order.down[s]
    return mask


def upper_bounds(alg: FiniteEffectAlgebra, elems: Iterable[int]) -> set[int]:
    """Common upper bounds of a set of elements (the whole carrier for ∅)."""
    return set(_bits(_bound_mask(alg, elems, upper=True)))


def lower_bounds(alg: FiniteEffectAlgebra, elems: Iterable[int]) -> set[int]:
    return set(_bits(_bound_mask(alg, elems, upper=False)))


def minimal_upper_bounds(alg: FiniteEffectAlgebra, elems: Iterable[int]) -> set[int]:
    return set(derive_order(alg).minimal(_bound_mask(alg, elems, upper=True)))


def supremum(alg: FiniteEffectAlgebra, elems: Iterable[int]) -> int | None:
    """Least upper bound, or ``None``.  sup ∅ = 0 (bounded-poset convention)."""
    return derive_order(alg).least(_bound_mask(alg, elems, upper=True))


def infimum(alg: FiniteEffectAlgebra, elems: Iterable[int]) -> int | None:
    """Greatest lower bound, or ``None``.  inf ∅ = 1."""
    return derive_order(alg).greatest(_bound_mask(alg, elems, upper=False))
