"""Property deciders and their cross-property laws."""

import itertools
import math
import pickle
import re

import pytest

import effalg as ea
from effalg import properties
from effalg.core import (InvariantViolation, ValidationReport, Violation, _bits, _walk_order,
                         index_order)
from effalg.enumeration import SearchResult
from effalg.properties import Classification, Decision, PropertyProfile, _ortho_scan
from effalg.theorems import CheckResult, TheoremReport

from conftest import bent_copies, even_subset_index, order_with_up


def _plain_ortho_scan(alg, order):
    """The orthogonal-system scan: one visit per system, both verdicts
    checked on each.

    The reference ``_ortho_scan``'s certificate and count must agree with.
    Returns the two decisions and the number of systems visited.
    """
    n = alg.size
    full = (1 << n) - 1
    oc_witness = []
    woc_witness = []
    count = 0
    stack = []

    def least_of(mask):
        for u in _bits(mask):
            if not mask & ~order.up[u]:
                return u
        return None

    def extend(min_v, total, psums, ub):
        nonlocal count
        for v in range(min_v, n):
            new_total = alg.sum_of(total, v)
            if new_total is None:
                continue
            new_psums = psums
            new_ub = ub
            for p in _bits(psums):
                s = alg.sum_of(p, v)
                if s is None:
                    raise InvariantViolation(
                        "a sub-multiset sum is undefined although the total is defined")
                if not new_psums >> s & 1:
                    new_psums |= 1 << s
                    new_ub &= order.up[s]
            stack.append(v)
            count += 1
            if least_of(new_ub) is None:
                if not oc_witness:
                    oc_witness.append(tuple(stack))
                if not woc_witness and any(
                        order.down[m] & new_ub == 1 << m for m in _bits(new_ub)):
                    woc_witness.append(tuple(stack))
            extend(v, new_total, new_psums, new_ub)
            stack.pop()

    count += 1  # the empty system: partial sums {0}, supremum 0
    extend(1, 0, 1, full)
    oc = Decision(not oc_witness, oc_witness[0] if oc_witness else None)
    woc = Decision(not woc_witness, woc_witness[0] if woc_witness else None)
    return oc, woc, count


def _plain_atom_closure(alg, repeat):
    """Breadth-first closure of the state (0, 0) under adding one atom.

    A state is a partial sum x and the index i of the first atom it may
    still add.  With ``repeat`` every atom stays available and i is always
    0; without it i is one past the last atom added, so no atom repeats.
    Returns the bitmask of partial sums reached and a parent link (state,
    atom added) for every state but the root.

    The reference ``_atom_reach``, ``atom_decomposition`` and both
    orthoatomistic verdicts must agree with.
    """
    ats = ea.atoms(alg)
    parent = {}
    reached = 1  # {0}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for state in frontier:
            x, i = state
            for j in range(i, len(ats)):
                s = alg.sum_of(x, ats[j])
                new = (s, 0 if repeat else j + 1)
                # s is None where undefined; 0 is the root's sum alone
                if s and new not in parent:
                    reached |= 1 << s
                    parent[new] = (state, ats[j])
                    nxt.append(new)
        frontier = nxt
    return reached, parent


def _plain_decomposition(parent, a):
    """The sorted atoms on the parent links from the state (a, 0) to the root."""
    out = []
    state = (a, 0)
    while state in parent:
        state, t = parent[state]
        out.append(t)
    return tuple(sorted(out))


def _assert_rejects(alg, order):
    """``_ortho_scan`` raises ``InvariantViolation`` naming a defined cell
    a ⊕ b = c with c outside ``order.up[a]``; returns (a, b, c)."""
    with pytest.raises(InvariantViolation) as info:
        _ortho_scan(alg)
    labels = [alg.label(x) for x in range(alg.size)]
    a, b, c = (labels.index(x) for x in re.match(r"(.+) ⊕ (.+) = (.+), but ",
                                                  str(info.value)).groups())
    assert alg.table[a][b] == c and not order.up[a] >> c & 1
    return a, b, c


def _disjunctive_by_definition(alg, order):
    """Whenever a is not below b, some nonzero c <= a has 0 as its only
    common lower bound with b.  Pairs a-major, so the first witness is the
    one ``is_disjunctive`` must return."""
    n = alg.size
    le = order.le
    lower = [{x for x in range(n) if le(x, c)} for c in range(n)]
    for a in range(n):
        for b in range(n):
            if le(a, b):
                continue
            if not any(c != 0 and le(c, a) and lower[c] & lower[b] == {0} for c in range(n)):
                return Decision(False, (a, b))
    return Decision(True)


def _lattice_by_definition(alg, order):
    """Every pair a < b has a join and a meet, the meet read as (a′ ∨ b′)′.

    Returns the lattice flag and the witness ``classify`` must record.
    """
    n = alg.size
    le = order.le
    supp = order.supplement

    def join(a, b):
        ubs = [u for u in range(n) if le(a, u) and le(b, u)]
        return next((u for u in ubs if all(le(u, w) for w in ubs)), None), ubs

    for a in range(n):
        for b in range(a + 1, n):
            least, ubs = join(a, b)
            if least is None:
                minimal = [m for m in ubs if not any(w != m and le(w, m) for w in ubs)]
                return False, {"kind": "no_supremum", "pair": (a, b),
                               "minimal_upper_bounds": minimal}
            if join(supp[a], supp[b])[0] is None:
                return False, {"kind": "no_infimum", "pair": (a, b)}
    return True, None


def _principal_by_definition(alg, a):
    """b + c <= a for every defined sum of two elements below a."""
    order = ea.derive_order(alg)
    below = list(order.below(a))
    for i, b in enumerate(below):
        for c in below[i:]:
            s = alg.table[b][c]
            if s is not None and not order.le(s, a):
                return False
    return True


class TestPrincipal:
    def test_matches_definition(self):
        models = [m for n in range(2, 9) for m in ea.enumerate_up_to_iso(n)]
        models += [ea.parse_recipe(r) for r in (
            "chain:5", "boolean:3", "boolean:4", "even_subsets:6",
            "horizontal_sum(boolean:2,chain:3)", "horizontal_sum(chain:2,chain:2)")]
        verdicts = [[ea.is_principal(alg, a) for a in range(alg.size)] for alg in models]
        assert verdicts == [[_principal_by_definition(alg, a) for a in range(alg.size)]
                            for alg in models]
        assert {v for row in verdicts for v in row} == {True, False}

    def test_even6_all_principal(self, even6):
        assert all(ea.is_principal(even6, a) for a in range(even6.size))

    def test_chain2_middle_not_principal(self):
        c2 = ea.chain(2)
        assert not ea.is_principal(c2, 1)  # 1 ⊥ 1 and 1⊕1 = 2 is not <= 1

    def test_unit_always_principal(self, small_corpus):
        for alg in small_corpus:
            assert ea.is_principal(alg, alg.one)


class TestClassify:
    def test_even6(self, even6):
        cls = ea.classify(even6)
        assert cls.omp and not cls.lattice and not cls.oml

    def test_boolean_is_oml(self, boolean3):
        cls = ea.classify(boolean3)
        assert cls.orthoalgebra and cls.omp and cls.lattice and cls.oml

    def test_chain4_not_orthoalgebra(self):
        cls = ea.classify(ea.chain(4))
        assert not cls.orthoalgebra and cls.witnesses["orthoalgebra"] == 1

    def test_two_element_algebra_has_all_flags(self):
        c1 = ea.chain(1)
        cls = ea.classify(c1)
        assert cls.orthoalgebra and cls.omp and cls.lattice and cls.oml
        prof = ea.profile(c1)
        assert all(prof.flags().values())

    def test_even4_is_a_lattice(self):
        cls = ea.classify(ea.even_subset_omp(4))
        assert cls.omp and cls.lattice and cls.oml

    def test_missing_meet_is_its_own_witness_kind(self, even6_meetless_first):
        cls = ea.classify(even6_meetless_first)
        assert not cls.lattice
        assert cls.witnesses["lattice"] == {"kind": "no_infimum", "pair": (1, 2)}
        assert ea.supremum(even6_meetless_first, (1, 2)) == even6_meetless_first.one
        assert ea.infimum(even6_meetless_first, (1, 2)) is None

    def test_lattice_loop_matches_definition(self, reference_corpus, even6_meetless_first):
        kinds = set()
        for alg in reference_corpus + [even6_meetless_first]:
            cls = ea.classify(alg)
            expected = _lattice_by_definition(alg, ea.derive_order(alg))
            assert (cls.lattice, cls.witnesses.get("lattice")) == expected, alg.name
            kinds.add(None if expected[1] is None else expected[1]["kind"])
        assert kinds == {None, "no_supremum", "no_infimum"}

    def test_lattice_loop_matches_definition_on_bent_orders(self, reference_corpus, monkeypatch):
        witnesses = []
        for alg in reference_corpus:
            for model, bent in bent_copies(alg):
                monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
                cls = ea.classify(model)
                expected = _lattice_by_definition(model, bent)
                assert (cls.lattice, cls.witnesses.get("lattice")) == expected, alg.name
                witnesses.append(expected[1])
        # most bent orders fail, at pairs of both kinds and past the first row
        failed = [w for w in witnesses if w is not None]
        assert len(failed) > len(witnesses) // 2
        assert {w["kind"] for w in failed} == {"no_supremum", "no_infimum"}
        assert len({w["pair"] for w in failed}) > 10
        assert any(w["pair"][0] > 0 for w in failed)

    def test_a_self_dual_pair_is_checked(self, monkeypatch):
        # boolean:3 by subset masks, with {a,b} put below {a,c} and {b,c}.
        # Every pair before ({a,b}, {c}) has both joins, and that pair, its
        # own supplement pair, has the two minimal upper bounds {a,c}, {b,c}.
        alg = ea.boolean_algebra(3)
        order = ea.derive_order(alg)
        up = list(order.up)
        up[0b011] |= 1 << 0b101 | 1 << 0b110
        bent = order_with_up(order, up)
        assert sorted((bent.supplement[0b011], bent.supplement[0b100])) == [0b011, 0b100]
        monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
        witness = {"kind": "no_supremum", "pair": (0b011, 0b100),
                   "minimal_upper_bounds": [0b101, 0b110]}
        assert _lattice_by_definition(alg, bent) == (False, witness)
        assert ea.classify(alg).witnesses["lattice"] == witness

    def test_even2_is_two_element_algebra(self):
        assert ea.even_subset_omp(2).size == 2


def _is_partial_order(order):
    """Reflexive, antisymmetric and transitive, with ``down`` the transpose of ``up``."""
    n = order.size
    le = order.le
    return (all(le(a, a) for a in range(n))
            and not any(a != b and le(a, b) and le(b, a) for a in range(n) for b in range(n))
            and all(le(a, c) for a in range(n) for b in range(n) for c in range(n)
                    if le(a, b) and le(b, c))
            and all(bool(order.down[b] >> a & 1) == le(a, b)
                    for a in range(n) for b in range(n)))


def _covers_by_definition(order):
    n = order.size
    le = order.le
    return tuple(
        tuple(t for t in range(n) if t != s and le(s, t)
              and not any(u not in (s, t) and le(s, u) and le(u, t) for u in range(n)))
        for s in range(n))


def _meets_by_definition(order):
    """Every pair has a greatest lower bound, read from ``le`` alone."""
    n = order.size
    le = order.le
    for a in range(n):
        for b in range(a + 1, n):
            lower = [x for x in range(n) if le(x, a) and le(x, b)]
            if not any(all(le(y, g) for y in lower) for g in lower):
                return False
    return True


class TestOrderIndex:
    def test_index_reads_joins_meets_and_covers(self, reference_corpus):
        for alg in reference_corpus:
            order = ea.derive_order(alg)
            index = index_order(order)
            assert index is not None and index == order.index
            assert index.covers == _covers_by_definition(order), alg.name
            up, down = order.up, order.down
            for a in range(alg.size):
                for b in range(a + 1, alg.size):
                    assert index.least.get(up[a] & up[b]) == order.least(up[a] & up[b])
                    assert index.greatest.get(down[a] & down[b]) \
                        == order.greatest(down[a] & down[b])

    def test_only_partial_orders_are_indexed(self, reference_corpus):
        indexed = set()
        for alg in reference_corpus:
            for _, bent in bent_copies(alg):
                assert (index_order(bent) is not None) == _is_partial_order(bent), alg.name
                indexed.add(index_order(bent) is not None)
        assert indexed == {True, False}
        # a partial order whose down-sets were left as they were
        order = ea.derive_order(ea.chain(3))
        assert index_order(order._replace(up=(order.up[0], order.up[1] & ~0b100,
                                              *order.up[2:]))) is None

    def test_a_relation_that_is_not_reflexive_is_not_indexed(self):
        order = ea.derive_order(ea.chain(3))
        up = (order.up[0], order.up[1] & ~0b10, *order.up[2:])
        down = (order.down[0], order.down[1] & ~0b10, *order.down[2:])
        with pytest.raises(InvariantViolation, match="order not reflexive"):
            _walk_order(up)
        assert index_order(order._replace(up=up, down=down)) is None

    def test_lattice_by_meets_matches_definition(self, reference_corpus, even6_meetless_first):
        verdicts = set()
        for alg in reference_corpus + [even6_meetless_first]:
            verdict = properties.lattice_by_meets(alg)
            assert verdict == _meets_by_definition(ea.derive_order(alg)) == ea.classify(alg).lattice
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_lattice_by_meets_matches_definition_on_bent_orders(self, reference_corpus,
                                                                monkeypatch):
        seen = set()
        for alg in reference_corpus:
            for model, bent in bent_copies(alg):
                monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
                verdict = properties.lattice_by_meets(model)
                assert verdict == _meets_by_definition(bent), alg.name
                seen.add((verdict, bent.index is not None))
        # both verdicts, from the index and from the scan
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    def test_lattice_by_meets_does_not_depend_on_cache_history(self, monkeypatch):
        # a model analysed under its own order, then read under a bent one:
        # the verdict is the bent relation's, whatever was derived before
        for recipe in ("boolean:3", "even_subsets:6", "chain:5",
                       "horizontal_sum(boolean:2,chain:3)"):
            for model, bent in bent_copies(ea.parse_recipe(recipe)):
                ea.profile(model)
                with monkeypatch.context() as patch:
                    patch.setattr(properties, "derive_order", lambda _alg: bent)
                    verdict = properties.lattice_by_meets(model)
                assert verdict == _meets_by_definition(bent), recipe


class TestIsotropicIndex:
    def test_chain4(self):
        c4 = ea.chain(4)
        assert ea.isotropic_index(c4, 1) == 4
        assert ea.isotropic_index(c4, 2) == 2

    def test_zero_is_infinite(self, chain5):
        assert ea.isotropic_index(chain5, 0) == math.inf

    def test_orthoalgebra_indices_are_one(self, even6, boolean3):
        for alg in (even6, boolean3):
            assert all(ea.isotropic_index(alg, a) == 1 for a in range(1, alg.size))

    def test_archimedean_on_finite_models(self, small_corpus):
        for alg in small_corpus:
            assert ea.is_archimedean(alg)
        assert ea.is_archimedean(ea.chain(10))


class TestAtoms:
    def test_even6_atoms_are_pairs(self, even6):
        ats = ea.atoms(even6)
        assert len(ats) == 15
        assert all(len(even6.label(a)) == 5 for a in ats)  # "{x,y}"

    def test_chain_atom_is_one(self):
        for n in (1, 2, 5, 8):
            assert ea.atoms(ea.chain(n)) == (1,)

    def test_boolean_atoms_are_singletons(self, boolean3):
        assert ea.atoms(boolean3) == (1, 2, 4)

    def test_atoms_below(self, even6):
        i_abcd = even_subset_index(6, 0b001111)
        below = ea.atoms_below(even6, i_abcd)
        assert len(below) == 6  # the six 2-subsets of a 4-set

    def test_atomic_on_finite_models(self, small_corpus):
        for alg in small_corpus:
            assert ea.is_atomic(alg)


class TestAtomistic:
    def test_chain5_fails_at_two(self, chain5):
        verdict = ea.is_atomistic(chain5)
        assert not verdict.ok and verdict.witness == 2  # sup{1} = 1 ≠ 2

    def test_even6_and_boolean(self, even6, boolean3):
        assert ea.is_atomistic(even6).ok
        assert ea.is_atomistic(boolean3).ok


class TestOrthoatomistic:
    def test_chain5(self, chain5):
        verdict = ea.is_orthoatomistic(chain5)
        assert verdict.ok
        assert verdict.witness[3] == (1, 1, 1)  # n is the n-fold sum of the atom

    def test_even6_decomposition_partitions(self, even6):
        verdict = ea.is_orthoatomistic(even6)
        assert verdict.ok
        i_abcd = even_subset_index(6, 0b001111)
        parts = verdict.witness[i_abcd]
        assert len(parts) == 2 and all(p in ea.atoms(even6) for p in parts)
        assert ea.oplus_multiset(even6, parts) == i_abcd

    def test_every_finite_model(self, small_corpus, enumerated_le5):
        for alg in small_corpus + enumerated_le5:
            assert ea.is_orthoatomistic(alg).ok

    def test_strict_set_variant_differs_on_chains(self, chain5, even6, boolean3):
        # 2 = 1 ⊕ 1 needs a repeated atom, so the set reading fails on chains
        assert not ea.is_orthoatomistic_sets(chain5)
        assert ea.is_orthoatomistic_sets(even6)
        assert ea.is_orthoatomistic_sets(boolean3)
        assert ea.is_orthoatomistic_sets(ea.chain(1))

    @pytest.fixture(scope="class")
    def atom_corpus(self, small_corpus, reference_corpus):
        return small_corpus + reference_corpus + [ea.chain(9)]

    def test_set_variant_matches_brute_force(self, atom_corpus):
        # reference: fold every subset of the atoms, each atom at most once
        for alg in atom_corpus:
            ats = ea.atoms(alg)
            sums = {ea.oplus_multiset(alg, combo)
                    for r in range(len(ats) + 1) for combo in itertools.combinations(ats, r)}
            assert ea.is_orthoatomistic_sets(alg) == (sums >= set(range(alg.size))), alg.name

    def test_decompositions_are_sorted_atoms_summing_to_the_element(self, atom_corpus):
        for alg in atom_corpus:
            ats = set(ea.atoms(alg))
            for a in range(alg.size):
                parts = ea.atom_decomposition(alg, a)
                if parts is not None:
                    assert list(parts) == sorted(parts) and set(parts) <= ats, (alg.name, a)
                    assert ea.oplus_multiset(alg, parts) == a, (alg.name, a)

    def test_passes_match_the_state_graph(self, atom_corpus):
        for alg in atom_corpus + [ea.even_subset_omp(10), ea.boolean_algebra(6)]:
            full = (1 << alg.size) - 1
            multi, parent = _plain_atom_closure(alg, repeat=True)
            sets, _ = _plain_atom_closure(alg, repeat=False)
            assert properties._atom_reach(alg)[0] == multi, alg.name
            assert ea.is_orthoatomistic(alg).ok == (multi == full), alg.name
            assert ea.is_orthoatomistic_sets(alg) == (sets == full), alg.name
            assert [ea.atom_decomposition(alg, a) for a in range(alg.size)] == [
                _plain_decomposition(parent, a) if multi >> a & 1 else None
                for a in range(alg.size)], alg.name

    def test_orthoalgebras_decompose_without_repeating_an_atom(self):
        # the opening's statement on the decompositions themselves: a ⊕ a
        # is defined only for a = 0 in an orthoalgebra
        recipes = [*(ea.boolean_algebra(k) for k in range(1, 7)),
                   *(ea.even_subset_omp(m) for m in range(2, 9, 2))]
        small = [alg for alg in recipes if alg.size <= 16]
        models = [*(m for n in range(2, 10) for m in ea.enumerate_up_to_iso(n)
                    if ea.classify(m).orthoalgebra),
                  *recipes,
                  *(ea.horizontal_sum(a, b) for i, a in enumerate(small) for b in small[i:])]
        for alg in models:
            assert ea.classify(alg).orthoalgebra, alg.name
            for a in range(1, alg.size):
                parts = ea.atom_decomposition(alg, a)
                assert len(set(parts)) == len(parts), (alg.name, a, parts)

    def test_chains_need_a_repeated_atom(self):
        for k in range(2, 10):
            chain = ea.chain(k)
            assert not ea.classify(chain).orthoalgebra
            assert not ea.is_orthoatomistic_sets(chain), k
            assert ea.atom_decomposition(chain, 2) == (1, 1), k


class TestDisjunctive:
    def test_chain5_counterexample(self, chain5):
        verdict = ea.is_disjunctive(chain5)
        assert not verdict.ok and verdict.witness == (2, 1)

    def test_boolean_and_even6(self, boolean3, even6):
        assert ea.is_disjunctive(boolean3).ok
        assert ea.is_disjunctive(even6).ok

    def test_matches_definition(self, reference_corpus):
        verdicts = [ea.is_disjunctive(alg) for alg in reference_corpus]
        assert verdicts == [_disjunctive_by_definition(alg, ea.derive_order(alg))
                            for alg in reference_corpus]
        assert {v.ok for v in verdicts} == {True, False}

    def test_matches_definition_on_bent_orders(self, reference_corpus, monkeypatch):
        witnesses = []
        for alg in reference_corpus:
            for model, bent in bent_copies(alg):
                monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
                verdict = ea.is_disjunctive(model)
                assert verdict == _disjunctive_by_definition(model, bent), alg.name
                witnesses.append(verdict.witness)
        assert len(set(witnesses) - {None}) > 20


class TestOrthocompleteness:
    def test_even6(self, even6):
        assert ea.is_orthocomplete(even6).ok
        assert ea.is_weakly_orthocomplete(even6).ok

    def test_chain3_and_hsum(self, hsum22):
        for alg in (ea.chain(3), hsum22):
            assert ea.is_orthocomplete(alg).ok
            assert ea.is_weakly_orthocomplete(alg).ok

    def test_scan_visits_every_orthogonal_multiset_on_chain(self):
        # partitions of 1..5 into parts, plus the empty system: 1+2+3+5+7+1
        assert _ortho_scan(ea.chain(5)) == 19

    @pytest.mark.parametrize("k, expected", [
        (5, 19), (12, 272), (32, 43820), (48, 918220), (64, 12308139)])
    def test_chain_system_count_is_a_sum_of_partition_numbers(self, k, expected):
        # On chain:k the orthogonal multisets of nonzero elements are the
        # partitions of the totals 0..k, so the count is sum_{t<=k} p(t).
        # p(t) by the usual recurrence over the largest part allowed.
        p = [1] + [0] * k
        for part in range(1, k + 1):
            for t in range(part, k + 1):
                p[t] += p[t - part]
        assert sum(p) == expected
        assert _ortho_scan(ea.chain(k)) == expected

    def test_boolean_system_count_is_a_bell_number(self):
        # On boolean:k a system is a family of disjoint nonempty subsets of
        # {1..k}, a partition of {1..k+1} once the rest joins the block of
        # k+1: Bell(k+1) systems.  Bell numbers by the triangle: each row
        # starts with the last entry of the row before.
        bell, row = [1], [1]
        for _ in range(11):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
            bell.append(row[0])
        assert bell[11] == 678570
        for k in range(1, 11):
            assert _ortho_scan(ea.boolean_algebra(k)) == bell[k + 1], k

    def test_scan_matches_plain_walk(self, reference_corpus):
        for alg in reference_corpus:
            scan = (ea.is_orthocomplete(alg), ea.is_weakly_orthocomplete(alg), _ortho_scan(alg))
            assert scan == _plain_ortho_scan(alg, ea.derive_order(alg)), alg

    @pytest.mark.parametrize("total, part", [
        (t, p) for t in range(2, 7) for p in range(1, t)])
    def test_memoised_scan_finds_the_same_first_witness(self, total, part, monkeypatch):
        # Valid models have no witness, so bend the order of chain:9: drop
        # `total` from its own up-set and `total + 2` from the up-sets of
        # `total + 1` and `part`.  Then a system fails exactly when it sums
        # to `total` and has no partial sum `part`.  The plain walk finds
        # such a witness; the certificate rejects the bent order instead,
        # naming a cell a ⊕ b = c with c not above a.
        alg = ea.chain(9)
        order = ea.derive_order(alg)
        up = list(order.up)
        up[total] &= ~(1 << total)
        up[total + 1] &= ~(1 << total + 2)
        up[part] &= ~(1 << total + 2)
        bent = order._replace(up=tuple(up), index=None)  # not reflexive at `total`
        witness = _plain_ortho_scan(alg, bent)[0].witness
        assert sum(witness) == total
        assert part not in {sum(c) for r in range(len(witness) + 1)
                            for c in itertools.combinations(witness, r)}
        monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
        _assert_rejects(alg, bent)

    def test_zero_as_the_only_minimal_upper_bound_is_a_weak_witness(self, monkeypatch):
        # Bend chain:3 so that the upper bounds of the system (3) are {0, 1}
        # with no least element and 0 as their only minimal element: the
        # plain walk finds a weak witness, and the certificate fails at 0.
        alg = ea.chain(3)
        order = ea.derive_order(alg)
        up = list(order.up)
        up[0], up[3] = 0b0001, 0b0011
        bent = order._replace(up=tuple(up), index=None)  # not reflexive at 3
        assert _plain_ortho_scan(alg, bent)[1] == Decision(False, (3,))
        monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
        assert _assert_rejects(alg, bent)[0] == 0

    def test_certificate_on_bent_orders(self, reference_corpus, monkeypatch):
        # Each bent copy cuts relations a < a ⊕ b, which the certificate
        # rejects.  The same copy with its cuts undone only adds relations:
        # then the certificate passes, and the plain walk must agree.
        rejected = witnessed = passed = 0
        for alg in reference_corpus:
            order = ea.derive_order(alg)
            for _, bent in bent_copies(alg):
                widened = order_with_up(order, [u | v for u, v in zip(bent.up, order.up)])
                for relation in (bent, widened):
                    model = alg._replace()
                    monkeypatch.setattr(properties, "derive_order", lambda _alg: relation)
                    oc, woc, count = _plain_ortho_scan(model, relation)
                    try:
                        scan = _ortho_scan(model)
                    except InvariantViolation:
                        _assert_rejects(model, relation)
                        rejected += 1
                        witnessed += not (oc.ok and woc.ok)
                    else:
                        assert oc.ok and woc.ok, alg
                        verdicts = (ea.is_orthocomplete(model), ea.is_weakly_orthocomplete(model))
                        assert (*verdicts, scan) == (oc, woc, count)
                        passed += relation != order
        assert rejected > 150 and witnessed > 100 and passed > 50


class TestProfile:
    def test_chain5(self, chain5):
        flags = ea.profile(chain5).flags()
        assert flags == {
            "orthoalgebra": False, "omp": False, "oml": False, "lattice": True,
            "archimedean": True, "orthocomplete": True, "weakly_orthocomplete": True,
            "atomic": True, "atomistic": False, "orthoatomistic": True,
            "orthoatomistic_sets": False, "disjunctive": False,
        }

    def test_even6(self, even6):
        flags = ea.profile(even6).flags()
        assert flags == {
            "orthoalgebra": True, "omp": True, "oml": False, "lattice": False,
            "archimedean": True, "orthocomplete": True, "weakly_orthocomplete": True,
            "atomic": True, "atomistic": True, "orthoatomistic": True,
            "orthoatomistic_sets": True, "disjunctive": True,
        }

    def test_profile_invariants_over_corpus(self, small_corpus, enumerated_le5):
        # profile() raises InvariantViolation if any cross-property law breaks
        for alg in small_corpus + enumerated_le5:
            prof = ea.profile(alg)
            flags = prof.flags()
            assert flags["oml"] == (flags["omp"] and flags["lattice"])
            assert flags["atomistic"] == (flags["atomic"] and flags["disjunctive"])
            if flags["omp"]:
                assert flags["orthoalgebra"]
            if flags["omp"] and flags["orthoatomistic"]:
                assert flags["atomistic"]
            assert flags["archimedean"] and flags["atomic"]
            assert flags["orthocomplete"] and flags["weakly_orthocomplete"]
            assert flags["orthoatomistic"]

    def test_omp_routes_agree_everywhere(self, small_corpus, enumerated_le5):
        for alg in small_corpus + enumerated_le5:
            cls = ea.classify(alg)  # records both routes; profile raises if they differ
            pairwise = all(ea.supremum(alg, (a, b)) == c for a, b, c in alg.defined_pairs())
            assert cls.omp == cls.omp_by_joins == pairwise

    def test_profile_caches_witnesses(self, even6):
        prof = ea.profile(even6)
        assert prof.witnesses["lattice"]["kind"] == "no_supremum"
        assert len(prof.witnesses["orthoatomistic"]) == even6.size - 1


# every record with its repr, as the frozen dataclasses printed it
RECORD_REPRS = [
    (Violation("A4", (1,), "m"), "Violation(axiom='A4', witness=(1,), message='m')"),
    (ValidationReport(True, ()), "ValidationReport(valid=True, violations=())"),
    (Decision(True), "Decision(ok=True, witness=None)"),
    (Classification(True, True, True, False, False, {}),
     "Classification(orthoalgebra=True, omp=True, omp_by_joins=True, lattice=False, "
     "oml=False, witnesses={})"),
    (PropertyProfile(*[True] * 12, atoms=(1,), witnesses={}),
     "PropertyProfile(orthoalgebra=True, omp=True, oml=True, lattice=True, "
     "archimedean=True, orthocomplete=True, weakly_orthocomplete=True, atomic=True, "
     "atomistic=True, orthoatomistic=True, orthoatomistic_sets=True, disjunctive=True, "
     "atoms=(1,), witnesses={})"),
    (CheckResult("pass"), "CheckResult(status='pass', witness=None)"),
    (TheoremReport("m", {}), "TheoremReport(model_name='m', results={})"),
    (SearchResult(None, "c"), "SearchResult(model=None, certificate='c')"),
]


RECORDS = tuple(type(r) for r, _ in RECORD_REPRS)


def _holds_record(value) -> bool:
    """Whether a witness payload has a result record anywhere inside it.

    Records are tuples, and the JSON report renders every tuple as a list,
    so a record inside a witness would change the report.
    """
    if isinstance(value, RECORDS):
        return True
    if isinstance(value, dict):
        return any(_holds_record(k) or _holds_record(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_record(v) for v in value)
    return False


class TestResultRecords:
    @pytest.mark.parametrize("record, text", RECORD_REPRS,
                             ids=[type(r).__name__ for r, _ in RECORD_REPRS])
    def test_repr_and_immutability(self, record, text):
        assert repr(record) == text
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    def test_methods(self, chain5):
        assert not Decision(False, 3) and Decision(True)
        prof = ea.profile(chain5)
        assert type(prof) is PropertyProfile
        assert list(prof.flags()) == list(properties.PROFILE_FLAGS)
        report = TheoremReport("m", {"x": CheckResult("pass"), "y": CheckResult("fail", 1)})
        assert report.failed == ("y",) and not report.all_pass
        assert ea.run_all(chain5).all_pass
        broken = ea.chain(3).with_entry(1, 2, None)
        assert ea.validate(broken).axiom_ids() == {"A3"}

    def test_analysed_model_round_trips_its_records(self, even6):
        ea.validate(even6)
        ea.profile(even6)
        ea.run_all(even6)
        copy = pickle.loads(pickle.dumps(even6))
        assert copy == even6
        records = {k: v for k, v in even6._memo.items()
                   if isinstance(v, RECORDS + (ea.OrderRelation,))}
        assert {"validate", "classify", "derive_order"} <= set(records)
        for key, value in records.items():
            assert type(copy._memo[key]) is type(value) and copy._memo[key] == value

    def test_no_witness_holds_a_record(self, reference_corpus, chain5, boolean3, even6):
        for alg in reference_corpus + [chain5, boolean3, even6]:
            for name, witness in ea.profile(alg).witnesses.items():
                assert not _holds_record(witness), (alg.name, name)
            for cid, result in ea.run_all(alg).results.items():
                assert not _holds_record(result.witness), (alg.name, cid)
