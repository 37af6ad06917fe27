import random

import pytest

import effalg as ea


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
