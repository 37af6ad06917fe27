"""Structural property deciders for finite effect algebras.

Every decider takes a valid model and answers one question: is the table
an orthoalgebra, an orthomodular poset, a lattice; is it Archimedean,
orthocomplete, weakly orthocomplete; is it atomic, atomistic,
orthoatomistic, disjunctive.  Deciders that can fail carry a witness.
``profile`` runs all of them once and enforces the implications that are
theorems on finite models, raising ``InvariantViolation`` on any breach:
a breach always means a defect in the deciders, not new mathematics.

Conventions adopted here:

* "sum of atoms" means the sum of an orthogonal *multiset* of atoms
  (repetitions allowed), which is what makes chains orthoatomistic via
  n = 1 + 1 + ... + 1; it is decided by a breadth-first search over
  elements that adds one atom at a time (``_atom_reach``).  The stricter
  reading with pairwise-distinct atoms is decided separately
  (``is_orthoatomistic_sets``), by one pass over the atoms that adds each
  to the subset sums found before it, and reported as a supplementary
  flag so the distinction stays observable.
* "c ∧ b = 0" in the disjunctivity test means: 0 is the only common lower
  bound of c and b (then the infimum exists and is 0).
* A "minimal upper bound" of an orthogonal system means a minimal element
  of the set of upper bounds of its finite partial sums.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

from .core import (
    FiniteEffectAlgebra,
    InvariantViolation,
    OrderRelation,
    _bits,
    _check_element,
    derive_order,
    partners,
    per_model,
    require_valid,
)


class Decision(NamedTuple):
    """A boolean verdict plus whatever evidence the decider produced."""

    ok: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


class Classification(NamedTuple):
    orthoalgebra: bool
    omp: bool
    omp_by_joins: bool
    lattice: bool
    oml: bool
    witnesses: Mapping[str, Any]


@per_model
def atoms(alg: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Minimal nonzero elements, ascending."""
    return tuple(derive_order(alg).minimal((1 << alg.size) - 2))


def atoms_below(alg: FiniteEffectAlgebra, a: int) -> tuple[int, ...]:
    _check_element(a, alg.size)
    order = derive_order(alg)
    return tuple(t for t in atoms(alg) if order.le(t, a))


def is_principal(alg: FiniteEffectAlgebra, a: int) -> bool:
    """b + c <= a whenever b, c <= a and b + c is defined (b = c allowed).

    For b <= a, b + c is defined iff c <= b′, and then b + c <= a iff
    c <= a ⊖ b; so one mask test per b decides it.
    """
    _check_element(a, alg.size)
    order = derive_order(alg)
    down, supp, ominus = order.down, order.supplement, order.ominus
    below = down[a]
    for b in _bits(below):
        rest = ominus[b].get(a)  # absent only if the order is not the table's
        if below & down[supp[b]] & ~(0 if rest is None else down[rest]):
            return False
    return True


def _least(order: OrderRelation) -> Callable[[int], int | None]:
    """The least element of an up-set mask, by lookup where the order is
    indexed; a relation that is not a partial order has no index, and its
    readers scan instead."""
    index = order.index
    return order.least if index is None else index.least.get


@per_model
def pair_joins(alg: FiniteEffectAlgebra) -> tuple[int | None, ...]:
    """The supremum of {a, b} for every defined pair, in ``defined_pairs`` order."""
    order = derive_order(alg)
    up = order.up
    least = _least(order)
    return tuple(least(up[a] & up[b]) for a, b, _ in alg.defined_pairs())


@per_model
def classify(alg: FiniteEffectAlgebra) -> Classification:
    """Orthoalgebra / orthomodular poset / lattice / orthomodular lattice.

    The OMP verdict is computed twice, from principality (``omp``) and from
    "a + b is the join of every orthogonal pair" (``omp_by_joins``); the
    routes are theorems of each other, so ``profile`` raises if they differ.
    """
    order = derive_order(alg)
    n = alg.size
    witnesses: dict[str, Any] = {}

    rows = alg.table
    orthoalgebra = True
    for a in range(1, n):
        if rows[a][a] is not None:
            orthoalgebra = False
            witnesses["orthoalgebra"] = a
            break

    omp = True
    for a in range(n):
        if not is_principal(alg, a):
            omp = False
            witnesses["omp"] = a
            break

    omp_by_joins = all(
        join == c for (_, _, c), join in zip(alg.defined_pairs(), pair_joins(alg)))

    # a ∧ b exists iff a′ ∨ b′ does: the supplement reverses the order.
    # It is also a bijection, so the meets ask for the same joins as the
    # pairs: the model is a lattice iff every pair has a join.  Only when
    # one has none is the first pair without a join or a meet looked for.
    index = order.index
    has_least = (index.least.__contains__ if index is not None
                 else lambda mask: order.least(mask) is not None)
    up = order.up
    lattice = all(all(map(has_least, map(ua.__and__, up[a + 1:]))) for a, ua in enumerate(up))
    if not lattice:
        co_up = [up[x] for x in order.supplement]
        a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                    if not (has_least(up[a] & up[b]) and has_least(co_up[a] & co_up[b])))
        if has_least(up[a] & up[b]):
            witnesses["lattice"] = {"kind": "no_infimum", "pair": (a, b)}
        else:
            witnesses["lattice"] = {"kind": "no_supremum", "pair": (a, b),
                                    "minimal_upper_bounds": list(order.minimal(up[a] & up[b]))}

    return Classification(orthoalgebra, omp, omp_by_joins, lattice, omp and lattice, witnesses)


def lattice_by_meets(alg: FiniteEffectAlgebra) -> bool:
    """Every pair has a greatest lower bound, read from ``down`` directly.

    A finite bounded poset in which every pair has a meet is a lattice, so
    this decides ``classify``'s ``lattice`` without its joins and without
    the supplement; ``profile`` compares the two routes.
    """
    order = derive_order(alg)
    index = order.index
    has_greatest = (index.greatest.__contains__ if index is not None
                    else lambda mask: order.greatest(mask) is not None)
    down = order.down
    return all(all(map(has_greatest, map(d.__and__, down[i + 1:])))
               for i, d in enumerate(down))


def isotropic_index(alg: FiniteEffectAlgebra, a: int) -> int | float:
    """Largest k such that the k-fold sum of a is defined; ∞ for a = 0."""
    require_valid(alg)
    _check_element(a, alg.size)
    if a == 0:
        return math.inf
    rows = alg.table
    k = 1
    acc = a
    while True:
        nxt = rows[acc][a]
        if nxt is None:
            return k
        acc = nxt
        k += 1
        if k > alg.size:
            # The partial sums of a nonzero element form a strictly
            # increasing chain, so a finite valid model cannot get here.
            raise InvariantViolation(f"unbounded isotropic chain at element {alg.label(a)}")


@per_model
def isotropic_indices(alg: FiniteEffectAlgebra) -> tuple[int | float, ...]:
    """``isotropic_index`` of every element, by element index."""
    return tuple(isotropic_index(alg, a) for a in range(alg.size))


def is_archimedean(alg: FiniteEffectAlgebra) -> bool:
    """Every nonzero element has a finite isotropic index (runs the real scan)."""
    return all(k != math.inf for k in isotropic_indices(alg)[1:])


def is_atomic(alg: FiniteEffectAlgebra) -> bool:
    """Every nonzero element dominates an atom (always true on finite models,
    but decided by the actual scan)."""
    order = derive_order(alg)
    atom_mask = 0
    for t in atoms(alg):
        atom_mask |= 1 << t
    return all(order.down[a] & atom_mask for a in range(1, alg.size))


def is_atomistic(alg: FiniteEffectAlgebra) -> Decision:
    """Every nonzero element is the supremum of the atoms below it."""
    order = derive_order(alg)
    up = order.up
    least = _least(order)
    ats = atoms(alg)
    full = (1 << alg.size) - 1
    for a in range(1, alg.size):
        bound = full
        for t in ats:
            if up[t] >> a & 1:
                bound &= up[t]
        if least(bound) != a:
            return Decision(False, a)
    return Decision(True)


@per_model
def _atom_reach(alg: FiniteEffectAlgebra) -> tuple[int, tuple[tuple[int, int] | None, ...]]:
    """The sums of orthogonal multisets of atoms, by breadth-first search
    from 0 adding one atom at a time: the bitmask of elements reached, and
    for each reached nonzero element the (sum, atom) it was first reached
    from.  A defined total forces every sub-sum to be defined, so growing
    one atom at a time loses no decomposition.
    """
    rows = alg.table
    ats = atoms(alg)
    link: list[tuple[int, int] | None] = [None] * alg.size
    reached = 1  # {0}
    queue = [0]
    for x in queue:  # the queue grows as it is read: breadth first
        row = rows[x]
        for t in ats:
            s = row[t]
            if s is not None and not reached >> s & 1:
                reached |= 1 << s
                link[s] = (x, t)
                queue.append(s)
    return reached, tuple(link)


def atom_decomposition(alg: FiniteEffectAlgebra, a: int) -> tuple[int, ...] | None:
    """A multiset of atoms summing to a (sorted), or ``None`` if unreachable:
    the atoms on ``_atom_reach``'s first links from a back to 0."""
    _check_element(a, alg.size)
    reached, link = _atom_reach(alg)
    if not reached >> a & 1:
        return None
    out: list[int] = []
    while a:
        a, t = link[a]
        out.append(t)
    return tuple(sorted(out))


def is_orthoatomistic(alg: FiniteEffectAlgebra) -> Decision:
    """Every nonzero element is a sum of an orthogonal multiset of atoms.

    On success the witness maps every nonzero element to one decomposition.
    """
    reached, _ = _atom_reach(alg)
    for a in range(1, alg.size):
        if not reached >> a & 1:
            return Decision(False, a)
    return Decision(True, {a: atom_decomposition(alg, a) for a in range(1, alg.size)})


def is_orthoatomistic_sets(alg: FiniteEffectAlgebra) -> bool:
    """Strict-set variant: decompositions may not repeat an atom.

    The bitmask of subset sums grows one atom at a time, each atom added
    only to the sums reached before its turn.  Supplementary flag only;
    the headline decider is ``is_orthoatomistic``.
    """
    rows = alg.table
    sums = 1  # {0}, the sum of no atoms
    for t in atoms(alg):
        plus_t = rows[t]  # the table is symmetric: plus_t[x] is x ⊕ t
        for x in _bits(sums):  # the sums before t's turn: ints do not change
            if plus_t[x] is not None:
                sums |= 1 << plus_t[x]
    return sums == (1 << alg.size) - 1


def is_disjunctive(alg: FiniteEffectAlgebra) -> Decision:
    """Whenever a is not below b, some nonzero c <= a meets b only in 0.

    ``meets_in_0[c]`` is the mask of the b with ``down[b] & down[c] == 1``.
    That relation is symmetric, so the b that some nonzero c <= a serves
    are the union of ``meets_in_0`` over those c, and the first failing
    pair, a-major, is the lowest b outside it and outside ``up[a]``.
    """
    order = derive_order(alg)
    up, down = order.up, order.down
    n = alg.size
    # 0 is the bottom (derive_order checks it), so b meets c in 0 iff no
    # nonzero x below b is below c, that is c lies in no up[x]
    meets_in_0 = []
    for b in range(n):
        common = 0
        for x in _bits(down[b] & ~1):
            common |= up[x]
        meets_in_0.append(up[0] & ~common)
    full = (1 << n) - 1
    for a in range(n):
        served = 0
        for c in _bits(down[a] & ~1):
            served |= meets_in_0[c]
        failing = full & ~up[a] & ~served
        if failing:
            return Decision(False, (a, (failing & -failing).bit_length() - 1))
    return Decision(True)


@per_model
def _ortho_scan(alg: FiniteEffectAlgebra) -> int:
    """Check the certificate that decides both completeness verdicts, and
    count the orthogonal systems.

    A multiset of nonzero elements is an orthogonal system iff its total
    sum is defined.  Infinite systems over a finite carrier only add copies
    of 0 (anything else would have infinite isotropic index), so the finite
    systems are all there are.  Orthocompleteness needs the supremum of the
    partial sums of every system to exist; weak orthocompleteness tolerates
    a missing supremum as long as there is no minimal upper bound either.

    The certificate is that every defined a ⊕ b = c has c in ``up[a]``.
    Let t be the total of a system and s one of its partial sums: the rest
    of the system sums to some r with s ⊕ r = t, so t is above s.  Then t
    is an upper bound of the partial sums, and one of them, so every upper
    bound is above t: t is the least upper bound, and both verdicts hold on
    every system.  Checking the defined cells of ``partners`` decides both;
    a cell that fails means the order was not derived from the table, and
    raises ``InvariantViolation`` naming the triple.

    The count returned is the number of systems, the empty one included.
    ``count[t]`` is the number of systems with every value >= m that extend
    the total t.  Running m down from n - 1, such a system has no m or
    takes one and goes on from t ⊕ m, so ``count[t] += count[t ⊕ m]``.
    t ⊕ m is strictly above t, so visiting t by decreasing ``below[t]``,
    the number of cells holding t, reaches t ⊕ m first: a <= t iff a ⊕ b = t
    for one b, so that is the size of t's down-set, read from the table.
    """
    up = derive_order(alg).up
    n = alg.size
    below = [0] * n
    for a, row in enumerate(partners(alg)):
        for b, c in zip(*row):
            if not up[a] >> c & 1:
                raise InvariantViolation(
                    f"{alg.label(a)} ⊕ {alg.label(b)} = {alg.label(c)}, but "
                    f"{alg.label(c)} is not above {alg.label(a)} in the derived order")
            below[c] += 1

    count = [1] * n
    descending = sorted(range(n), key=below.__getitem__, reverse=True)
    for m in range(n - 1, 0, -1):
        plus_m = alg.table[m]  # the table is symmetric: plus_m[t] is t ⊕ m
        for t in descending:
            s = plus_m[t]
            if s is not None:
                count[t] += count[s]
    return count[0]


def is_orthocomplete(alg: FiniteEffectAlgebra) -> Decision:
    """Every orthogonal system has a sum (= supremum of its partial sums).

    Decided by the certificate of ``_ortho_scan``: the total of every system
    is the least upper bound of its partial sums.
    """
    _ortho_scan(alg)
    return Decision(True)


def is_weakly_orthocomplete(alg: FiniteEffectAlgebra) -> Decision:
    """Every orthogonal system has a sum or no minimal upper bound at all.

    Decided by the same certificate as ``is_orthocomplete``: every system
    has a sum.
    """
    _ortho_scan(alg)
    return Decision(True)


class PropertyProfile(NamedTuple):
    orthoalgebra: bool
    omp: bool
    oml: bool
    lattice: bool
    archimedean: bool
    orthocomplete: bool
    weakly_orthocomplete: bool
    atomic: bool
    atomistic: bool
    orthoatomistic: bool
    orthoatomistic_sets: bool
    disjunctive: bool
    atoms: tuple[int, ...]
    witnesses: Mapping[str, Any]

    def flags(self) -> dict[str, bool]:
        return dict(zip(PROFILE_FLAGS, self))


PROFILE_FLAGS = PropertyProfile._fields[:-2]


def profile(alg: FiniteEffectAlgebra) -> PropertyProfile:
    """Every decider's verdict, with the cross-property theorems enforced on
    them; ``build_report`` hands this record to ``theorems.check_verdicts``."""
    prof = _verdicts(alg)
    _enforce_profile_invariants(alg, prof)
    return prof


def _verdicts(alg: FiniteEffectAlgebra) -> PropertyProfile:
    """Every decider's verdict, read once, with no law enforced.  A command
    gathers it once, so neither it nor the deciders only it calls are
    memoised; a record kept on the model would outlive a rebound decider."""
    cls = classify(alg)
    archimedean = is_archimedean(alg)
    oc = is_orthocomplete(alg)
    woc = is_weakly_orthocomplete(alg)
    atomic = is_atomic(alg)
    atomistic = is_atomistic(alg)
    orthoatomistic = is_orthoatomistic(alg)
    oa_sets = is_orthoatomistic_sets(alg)
    disjunctive = is_disjunctive(alg)
    ats = atoms(alg)

    witnesses: dict[str, Any] = dict(cls.witnesses)
    if not atomistic:
        witnesses["atomistic"] = atomistic.witness
    if not disjunctive:
        witnesses["disjunctive"] = disjunctive.witness
    witnesses["orthoatomistic"] = orthoatomistic.witness

    return PropertyProfile(
        orthoalgebra=cls.orthoalgebra,
        omp=cls.omp,
        oml=cls.oml,
        lattice=cls.lattice,
        archimedean=archimedean,
        orthocomplete=oc.ok,
        weakly_orthocomplete=woc.ok,
        atomic=atomic,
        atomistic=atomistic.ok,
        orthoatomistic=orthoatomistic.ok,
        orthoatomistic_sets=oa_sets,
        disjunctive=disjunctive.ok,
        atoms=ats,
        witnesses=witnesses,
    )


def _enforce_profile_invariants(alg: FiniteEffectAlgebra, p: PropertyProfile) -> None:
    name = alg.name or f"model(size={alg.size})"

    def check(cond: bool, law: str) -> None:
        if not cond:
            raise InvariantViolation(f"{law} failed on {name}")

    check(p.oml == (p.omp and p.lattice), "oml = omp and lattice")
    check(not p.atomistic or p.atomic, "atomistic implies atomic")
    check(not p.orthoatomistic or p.atomic, "orthoatomistic implies atomic")
    check(not p.omp or p.orthoalgebra, "every orthomodular poset is an orthoalgebra")
    check(not (p.omp and p.orthoatomistic) or p.atomistic,
          "an orthoatomistic orthomodular poset is atomistic")
    check(p.lattice == lattice_by_meets(alg), "lattice by joins iff lattice by meets")
    check(p.omp == classify(alg).omp_by_joins,
          "all elements principal iff ⊕ is the join of every orthogonal pair")
    indices_one = all(k == 1 for k in isotropic_indices(alg)[1:])
    check(p.orthoalgebra == indices_one,
          "orthoalgebra iff every nonzero isotropic index is 1")
    check(p.atomistic == (p.atomic and p.disjunctive),
          "atomistic iff atomic and disjunctive")
    # a ⊕ a is defined only for a = 0 in an orthoalgebra, so no atom repeats
    check(not p.orthoalgebra or p.orthoatomistic_sets == p.orthoatomistic,
          "in an orthoalgebra a sum of atoms repeats none")
    # Finite-carrier theorems, each decided by its real procedure above.
    check(p.archimedean, "finite models are Archimedean")
    check(p.atomic, "finite models are atomic")
    check(p.orthocomplete, "finite models are orthocomplete")
    check(p.weakly_orthocomplete, "finite models are weakly orthocomplete")
    check(p.orthoatomistic, "finite models are orthoatomistic")
