"""Built-in model families and the ``.efa`` text format.

Families
--------
* ``boolean_algebra(k)``:   all subsets of a k-point set, sum = disjoint union.
* ``even_subset_omp(m)``:   even-cardinality subsets of an m-point set
  (m even), sum = union of disjoint members.  For m >= 6 this is the
  standard orthomodular poset that is not a lattice.
* ``chain(n)``:             {0, ..., n} with a + b defined iff a + b <= n.
* ``horizontal_sum(a, b)``: glue two algebras at 0 and 1, no cross sums.

Carrier orderings are fixed so that saved files are byte-stable: subset
families list subsets in binary-counter order of their characteristic
masks, chains in numeric order, horizontal sums as [0, left middles,
right middles, 1].  Every constructor output passes validation.  Builders
and the loader write rows for the model's constructor, the one check of
every table; ``from_entries`` is the convenience for a mapping of pairs.

File format (``.efa``): UTF-8 text (one leading byte-order mark is
skipped), full-line ``#`` comments, exactly one ``elements: n`` and one
``one: k`` header, optional ``label: i text`` lines, and ``sum: a b c``
lines meaning a + b = c.  Zero is implicit at index 0.  ``a + 0 = a``
entries may be omitted; the loader inserts them.
Either orientation of a pair is accepted.  Conflicting entries, a carrier
of more than ``EFA_MAX_ELEMENTS`` elements and bytes that are not UTF-8 are
parse errors; every parse error but a missing header names its line.
"""

from __future__ import annotations

import io
from typing import IO

from .core import FiniteEffectAlgebra, require_valid

_POINT_NAMES = "abcdefghij"

BOOLEAN_MAX_POINTS = 10
EVEN_SUBSET_MAX_POINTS = 10
CHAIN_MAX = 64
# Largest .efa carrier (the biggest built-in model), checked before allocating.
EFA_MAX_ELEMENTS = 1 << BOOLEAN_MAX_POINTS


class EfaParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _subset_label(mask: int, k: int, full_as: str | None = None) -> str:
    if mask == 0:
        return "∅"
    if full_as is not None and mask == (1 << k) - 1:
        return full_as
    return "{" + ",".join(_POINT_NAMES[i] for i in range(k) if mask >> i & 1) + "}"


def _subset_family(masks: list[int], k: int, full_as: str | None, name: str
                   ) -> FiniteEffectAlgebra:
    """Subsets of a k-point set in the order of ``masks``; sum = disjoint union."""
    index = {x: i for i, x in enumerate(masks)}
    table = tuple(tuple(None if x & y else index[x | y] for y in masks) for x in masks)
    labels = tuple(_subset_label(x, k, full_as) for x in masks)
    return FiniteEffectAlgebra(len(masks), len(masks) - 1, table, labels, name)


def boolean_algebra(k: int) -> FiniteEffectAlgebra:
    """Power set of a k-point set; element index equals its subset mask."""
    if not 1 <= k <= BOOLEAN_MAX_POINTS:
        raise ValueError(f"boolean_algebra expects 1 <= k <= {BOOLEAN_MAX_POINTS}")
    return _subset_family(list(range(1 << k)), k, None, f"boolean:{k}")


def even_subset_omp(m: int) -> FiniteEffectAlgebra:
    """Even-cardinality subsets of an m-point set, m even; sum = disjoint union."""
    if m % 2 != 0 or not 2 <= m <= EVEN_SUBSET_MAX_POINTS:
        raise ValueError(f"even_subset_omp expects an even m with 2 <= m <= {EVEN_SUBSET_MAX_POINTS}")
    masks = [x for x in range(1 << m) if bin(x).count("1") % 2 == 0]
    return _subset_family(masks, m, "X", f"even_subsets:{m}")


def chain(n: int) -> FiniteEffectAlgebra:
    """The chain {0, ..., n} with addition truncated at n."""
    if not 1 <= n <= CHAIN_MAX:
        raise ValueError(f"chain expects 1 <= n <= {CHAIN_MAX}")
    table = tuple(tuple(a + b if a + b <= n else None for b in range(n + 1)) for a in range(n + 1))
    labels = tuple(str(i) for i in range(n + 1))
    return FiniteEffectAlgebra(n + 1, n, table, labels, f"chain:{n}")


def horizontal_sum(left: FiniteEffectAlgebra, right: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Identify the zeros and units of two algebras; no cross sums.

    Carrier order: [0, left middles, right middles, 1].  The result is
    validated before it is returned.
    """
    require_valid(left)
    require_valid(right)
    n = left.size + right.size - 2
    one = n - 1

    def mapper(alg: FiniteEffectAlgebra, offset: int):
        middles = [x for x in range(alg.size) if x != 0 and x != alg.one]
        send = {0: 0, alg.one: one}
        for pos, x in enumerate(middles):
            send[x] = offset + pos
        return send

    send_l = mapper(left, 1)
    send_r = mapper(right, left.size - 1)
    rows: list[list[int | None]] = [[None] * n for _ in range(n)]
    for send, alg in ((send_l, left), (send_r, right)):
        for a, b, c in alg.defined_pairs():
            rows[send[a]][send[b]] = rows[send[b]][send[a]] = send[c]

    labels = ["0"] + ["_"] * (n - 2) + ["1"]
    for send, alg, tag in ((send_l, left, "A"), (send_r, right, "B")):
        for x, pos in send.items():
            if pos not in (0, one):
                labels[pos] = f"{tag}.{alg.label(x)}"
    name = f"horizontal_sum({left.name or '?'},{right.name or '?'})"
    result = FiniteEffectAlgebra(n, one, tuple(map(tuple, rows)), tuple(labels), name)
    require_valid(result)
    return result


# ---------------------------------------------------------------------------
# Recipes

RECIPE_FAMILIES = ("boolean", "even_subsets", "chain", "horizontal_sum")


def parse_recipe(text: str) -> FiniteEffectAlgebra:
    """Build a model from a recipe string.

    Grammar: ``boolean:K`` | ``even_subsets:M`` | ``chain:N`` |
    ``horizontal_sum(RECIPE,RECIPE)``.
    """
    text = text.strip()
    if text.startswith("horizontal_sum(") and text.endswith(")"):
        inner = text[len("horizontal_sum("):-1]
        parts = _split_top_level(inner)
        if len(parts) != 2:
            raise ValueError(f"horizontal_sum takes exactly two operand recipes, got {len(parts)}")
        return horizontal_sum(parse_recipe(parts[0]), parse_recipe(parts[1]))
    if ":" in text:
        family, _, arg = text.partition(":")
        family = family.strip()
        try:
            value = int(arg)
        except ValueError:
            raise ValueError(f"bad recipe parameter {arg!r} in {text!r}") from None
        if family == "boolean":
            return boolean_algebra(value)
        if family == "even_subsets":
            return even_subset_omp(value)
        if family == "chain":
            return chain(value)
    raise ValueError(f"unknown recipe {text!r}; families: {', '.join(RECIPE_FAMILIES)}")


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


# ---------------------------------------------------------------------------
# .efa serialization


def dumps(alg: FiniteEffectAlgebra) -> str:
    out = io.StringIO()
    if alg.name:
        out.write(f"# {alg.name}\n")
    out.write(f"elements: {alg.size}\n")
    out.write(f"one: {alg.one}\n")
    for i in range(alg.size):
        out.write(f"label: {i} {alg.label(i)}\n")
    for a, b, c in alg.defined_pairs():
        if a == 0 and c == b:
            continue  # the loader reinserts a ⊕ 0 = a
        out.write(f"sum: {a} {b} {c}\n")
    return out.getvalue()


def save(alg: FiniteEffectAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(alg))


def loads(text: str, name: str = "") -> FiniteEffectAlgebra:
    return _parse(io.StringIO(text), name)


def load(path) -> FiniteEffectAlgebra:
    # surrogateescape keeps an undecodable byte on its own line for _parse to reject
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _parse(fh, str(path))


def _parse(fh: IO[str], name: str) -> FiniteEffectAlgebra:
    size: int | None = None
    one: int | None = None
    one_ln = 0
    sums: dict[tuple[int, int], tuple[int, int]] = {}  # pair -> (value, line)
    labels: dict[int, tuple[str, int]] = {}  # index -> (text, line)

    def fail(msg: str, ln: int):
        raise EfaParseError(msg, ln)

    for ln, raw in enumerate(fh, start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError as exc:
            fail(f"not UTF-8 text at column {exc.start + 1}", ln)
        if ln == 1 and raw.startswith("\ufeff"):
            raw = raw[1:]  # a UTF-8 byte-order mark, as some editors write
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            fail(f"expected 'key: value', got {line!r}", ln)
        key = key.strip()
        rest = rest.strip()
        if key == "elements":
            if size is not None:
                fail("duplicate 'elements' header", ln)
            size = _int_field(rest, "elements", ln)
            if size < 2:
                fail("need at least 2 elements", ln)
            if size > EFA_MAX_ELEMENTS:
                fail(f"at most {EFA_MAX_ELEMENTS} elements are supported, got {size}", ln)
        elif key == "one":
            if one is not None:
                fail("duplicate 'one' header", ln)
            one, one_ln = _int_field(rest, "one", ln), ln
        elif key == "sum":
            parts = rest.split()
            if len(parts) != 3:
                fail(f"sum line needs three indices, got {rest!r}", ln)
            try:
                a, b, c = (int(p) for p in parts)
            except ValueError:
                fail(f"sum line needs integers, got {rest!r}", ln)
            lo, hi = (a, b) if a <= b else (b, a)
            if (lo, hi) in sums and sums[(lo, hi)][0] != c:
                prev_c, prev_ln = sums[(lo, hi)]
                fail(f"conflicting sum for pair ({lo},{hi}): "
                     f"{prev_c} (line {prev_ln}) vs {c}", ln)
            sums[(lo, hi)] = (c, ln)
        elif key == "label":
            idx_text, _, label_text = rest.partition(" ")
            try:
                idx = int(idx_text)
            except ValueError:
                fail(f"label line needs an index, got {rest!r}", ln)
            text = label_text.strip()
            prev, prev_ln = labels.setdefault(idx, (text, ln))
            if prev != text:
                fail(f"conflicting label for element {idx}: {prev!r} (line {prev_ln}) vs {text!r}", ln)
        else:
            fail(f"unknown directive {key!r}", ln)

    if size is None:
        raise EfaParseError("missing 'elements' header")
    if one is None:
        raise EfaParseError("missing 'one' header")
    if not 1 <= one < size:
        fail(f"unit index {one} out of range for {size} elements", one_ln)
    # a ⊕ 0 = a, unless a sum line says otherwise
    rows: list[list[int | None]] = [[x] + [None] * (size - 1) for x in range(size)]
    rows[0] = list(range(size))
    for (a, b), (c, ln) in sums.items():
        if not (0 <= a < size and 0 <= b < size and 0 <= c < size):
            fail(f"sum indices out of range: {a} {b} {c}", ln)
        rows[a][b] = rows[b][a] = c
    for idx, (_, ln) in labels.items():
        if not 0 <= idx < size:
            fail(f"label index {idx} out of range for {size} elements", ln)

    label_tuple: tuple[str, ...] = ()
    if labels:
        label_tuple = tuple(labels[i][0] if i in labels else str(i) for i in range(size))
    return FiniteEffectAlgebra(size, one, tuple(map(tuple, rows)), label_tuple, name)


def _int_field(text: str, what: str, ln: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise EfaParseError(f"'{what}' needs an integer, got {text!r}", ln) from None
