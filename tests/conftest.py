import random

import pytest

import effalg as ea
from effalg.core import _bits, index_order


@pytest.fixture(scope="session")
def chain5():
    return ea.chain(5)


@pytest.fixture(scope="session")
def boolean3():
    return ea.boolean_algebra(3)


@pytest.fixture(scope="session")
def even6():
    return ea.even_subset_omp(6)


@pytest.fixture(scope="session")
def hsum22():
    return ea.horizontal_sum(ea.chain(2), ea.chain(2))


@pytest.fixture(scope="session")
def small_corpus(chain5, boolean3, even6, hsum22):
    """A spread of valid models used by the cross-property invariant tests."""
    return [
        ea.chain(1),
        ea.chain(2),
        ea.chain(3),
        chain5,
        ea.boolean_algebra(1),
        ea.boolean_algebra(2),
        boolean3,
        ea.even_subset_omp(2),
        ea.even_subset_omp(4),
        even6,
        hsum22,
        ea.horizontal_sum(ea.chain(2), ea.chain(3)),
        ea.horizontal_sum(ea.boolean_algebra(2), ea.chain(2)),
    ]


@pytest.fixture(scope="session")
def even6_meetless_first():
    """even_subsets:6 with {c,d,e,f} at 1, {a,d,e,f} at 2 and the rest in order.

    Pair (1, 2) then comes first among the pairs without a bound: its
    supremum exists (the unit) and its infimum does not.
    """
    even6 = ea.even_subset_omp(6)
    first = [even6.labels.index("{c,d,e,f}"), even6.labels.index("{a,d,e,f}")]
    order = [0, *first] + [i for i in range(1, even6.size) if i not in first]
    pi = [0] * even6.size
    for new, old in enumerate(order):
        pi[old] = new
    return ea.permute(even6, pi)


@pytest.fixture(scope="session")
def reference_corpus():
    """Every class of order 2-7 and three wider models: where rewritten
    deciders are compared with their definitions."""
    return [
        *(m for n in range(2, 8) for m in ea.enumerate_up_to_iso(n)),
        ea.boolean_algebra(4), ea.even_subset_omp(6),
        ea.horizontal_sum(ea.boolean_algebra(2), ea.chain(3)),
    ]


@pytest.fixture(scope="session")
def enumerated_le5():
    return [m for n in range(2, 6) for m in ea.enumerate_up_to_iso(n)]


@pytest.fixture()
def rng():
    return random.Random(20250809)


def even_subset_index(m: int, mask: int) -> int:
    """Position of an even-cardinality subset in the even_subset_omp carrier.

    Re-derives the documented binary-counter order independently of the
    constructor so tests can address elements by their subsets.
    """
    masks = [x for x in range(1 << m) if bin(x).count("1") % 2 == 0]
    return masks.index(mask)


def order_with_up(order, up):
    """A copy of ``order`` with the up-sets ``up``, ``down`` their transpose
    and the index of that relation (``None`` unless it is a partial order),
    so that ``le``, ``least``, ``minimal`` and the index all read the one
    relation."""
    down = [0] * order.size
    for x, mask in enumerate(up):
        for y in _bits(mask):
            down[y] |= 1 << x
    relation = order._replace(up=tuple(up), down=tuple(down))
    return relation._replace(index=index_order(relation))


def bend_order(order, rng):
    """A copy of ``order`` with one to three relations x < y cut and up to
    two x <= y added, none of them in the up-sets of 0 and of the unit.

    The laws a decider checks hold on every valid model; a bent order
    breaks them, so that failing verdicts and their first witnesses get
    compared too.
    """
    n = order.size
    up = list(order.up)
    rows = [x for x in range(1, n) if up[x] != 1 << x]
    strict = [(x, y) for x in rows for y in _bits(up[x]) if x != y]
    for x, y in rng.sample(strict, min(rng.randint(1, 3), len(strict))):
        up[x] &= ~(1 << y)
    for _ in range(rng.randint(0, 2) if rows else 0):
        up[rng.choice(rows)] |= 1 << rng.randrange(1, n)
    return order_with_up(order, up)


def bent_copies(alg, count=6):
    """``count`` bent orders of ``alg``, each paired with a fresh copy of the
    model (an empty memo), from a seed fixed by the model."""
    rng = random.Random(alg.size * 1009 + len(list(alg.defined_pairs())))
    order = ea.derive_order(alg)
    return [(alg._replace(), bend_order(order, rng)) for _ in range(count)]
