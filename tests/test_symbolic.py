"""The four infinite families: exact ops, sampled laws, claim checkers."""

import pytest

import effalg as ea
from effalg.symbolic import balanced, blocks, extended_chain as ec, fincof

SAMPLES = 10_000  # sampled triples per family for the algebraic laws


def _check_family_laws(rng, sample, oplus, le, supplement, zero, one,
                       ominus=None, n=SAMPLES):
    """Commutativity, strong associativity, involution, antitonicity,
    closure, the orthogonality route (sum defined iff below the
    supplement), and the difference witness where the family exposes it."""
    for _ in range(n):
        u, v, w = sample(rng), sample(rng), sample(rng)
        uv = oplus(u, v)
        assert uv == oplus(v, u)
        if uv is not None:
            uvw = oplus(uv, w)
            if uvw is not None:
                vw = oplus(v, w)
                assert vw is not None, (u, v, w)
                assert oplus(u, vw) == uvw
        assert supplement(supplement(u)) == u
        assert (uv is not None) == le(u, supplement(v))
        if le(u, v):
            assert le(supplement(v), supplement(u))
            if ominus is not None:
                c = ominus(v, u)
                assert c is not None and oplus(u, c) == v
        assert le(zero, u) and le(u, one)


def _check_sampled_principality(rng, sample, oplus, le, n=4000, min_hits=50):
    """Orthomodular-poset route: sums of orthogonal pairs below u stay below u."""
    hits = 0
    for _ in range(n):
        u, v, w = sample(rng), sample(rng), sample(rng)
        if le(v, u) and le(w, u):
            s = oplus(v, w)
            if s is not None:
                hits += 1
                assert le(s, u), (u, v, w)
    assert hits >= min_hits  # the sampler must actually exercise the law


class TestFinCof:
    def test_disjoint_union(self):
        assert fincof.oplus(fincof.fin(1, 2), fincof.fin(3)) == fincof.fin(1, 2, 3)
        assert fincof.oplus(fincof.fin(1), fincof.fin(1, 5)) is None

    def test_cofinite_sums(self):
        # finite + cofinite defined iff the finite part sits inside the hole
        assert fincof.oplus(fincof.fin(3), fincof.cofin(3, 7)) == fincof.cofin(7)
        assert fincof.oplus(fincof.fin(4), fincof.cofin(3)) is None
        assert fincof.oplus(fincof.cofin(1), fincof.cofin(2)) is None

    def test_order_is_inclusion(self):
        assert fincof.le(fincof.fin(1), fincof.fin(1, 2))
        assert fincof.le(fincof.fin(2), fincof.cofin(1))
        assert not fincof.le(fincof.cofin(1), fincof.fin(1, 2))
        assert fincof.le(fincof.cofin(1, 2), fincof.cofin(1))

    def test_ominus_witnesses_le(self, rng):
        for _ in range(2000):
            u, v = fincof.random_element(rng), fincof.random_element(rng)
            if fincof.le(u, v):
                c = fincof.ominus(v, u)
                assert c is not None and fincof.oplus(u, c) == v

    def test_sampled_laws(self, rng):
        _check_family_laws(rng, fincof.random_element, fincof.oplus, fincof.le,
                           fincof.supplement, fincof.ZERO, fincof.ONE,
                           ominus=fincof.ominus)

    def test_defeater_on_full_carrier(self):
        ref = fincof.refute_upper_bound_candidate(fincof.cofin())
        assert ref.kind == "smaller_upper_bound"
        assert ref.witness == fincof.cofin(1)
        assert ref.verified

    def test_defeater_chains_downward(self):
        ref = fincof.refute_upper_bound_candidate(fincof.cofin(1))
        assert ref.witness == fincof.cofin(1, 3)
        assert ref.verified

    def test_finite_candidate_is_rejected(self):
        ref = fincof.refute_upper_bound_candidate(fincof.fin(0, 2, 4))
        assert ref.kind == "not_upper_bound" and ref.verified

    def test_sampled_principality(self, rng):
        # the family forms an orthomodular lattice; principality is the
        # poset half of that claim
        _check_sampled_principality(rng, fincof.random_element,
                                    fincof.oplus, fincof.le)

    def test_hundred_random_candidates(self, rng):
        for i in range(100):
            cand = fincof.random_upper_bound(rng) if i % 2 else fincof.random_element(rng)
            ref = fincof.refute_upper_bound_candidate(cand)
            assert ref.verified
            # re-verify through the family's own order predicate
            if ref.kind == "smaller_upper_bound":
                assert fincof.lt(ref.witness, cand)
                assert fincof.is_upper_bound_of_evens(ref.witness)
                for k in range(20):
                    assert fincof.le(fincof.even_singleton(k), ref.witness)
            else:
                assert not fincof.le(ref.witness, cand)


class TestSharedSetAlgebra:
    @pytest.mark.parametrize("family, cls, u, v", [
        (fincof, fincof.FinCofElement, fincof.fin(1, 2), fincof.fin(3)),
        (balanced, balanced.BalancedElement, balanced.atom(0, 0), balanced.atom(1, 1)),
    ], ids=["fincof", "balanced"])
    def test_results_stay_in_their_family(self, family, cls, u, v):
        total = family.oplus(u, v)
        co = family.supplement(total)
        # every branch of oplus and ominus: direct and complemented operands
        results = (total, family.oplus(u, co), co, family.ominus(total, u),
                   family.ominus(family.ONE, u), family.ominus(family.ONE, co))
        for result in results:
            assert type(result) is cls

    def test_families_do_not_compare_equal(self):
        assert fincof.ZERO != balanced.ZERO


class TestBlocks:
    def test_membership_flips_on_perturbation(self):
        u = blocks.BlockElement(frozenset({1, 2}), frozenset({(1, 0), (3, 4)}))
        assert not blocks.contains(u, (1, 0))   # removed from the base
        assert blocks.contains(u, (3, 4))       # added to the base
        assert blocks.contains(u, (2, 9))

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            blocks.BlockElement(frozenset({1, 3}))

    def test_disjoint_bases_union_stays_in_family(self):
        u = blocks.BlockElement(frozenset({1, 2}))
        v = blocks.BlockElement(frozenset({3, 4}))
        assert blocks.oplus(u, v) == blocks.ONE
        assert blocks.oplus(u, blocks.U23) is None  # share block 2

    def test_supplement_is_complement(self):
        assert blocks.supplement(blocks.U12) == blocks.BlockElement(frozenset({3, 4}))
        p = frozenset({(2, 5)})
        assert blocks.supplement(blocks.BlockElement(frozenset(), p)) == \
            blocks.BlockElement(frozenset({1, 2, 3, 4}), p)

    def test_sampled_laws(self, rng):
        _check_family_laws(rng, blocks.random_element, blocks.oplus, blocks.le,
                           blocks.supplement, blocks.ZERO, blocks.ONE,
                           ominus=blocks.ominus)

    def test_sampled_principality(self, rng):
        # orthogonal pairs below a common bound are rarer here, so sample more
        _check_sampled_principality(rng, blocks.random_element,
                                    blocks.oplus, blocks.le, n=16000)

    def test_meet_defeater_fresh_point(self):
        c = blocks.BlockElement(frozenset(), frozenset({(2, 0), (2, 1)}))
        ref = blocks.refute_meet_candidate(c)
        assert ref.kind == "larger_common_lower_bound"
        assert ref.witness.pert == frozenset({(2, 0), (2, 1), (2, 2)})
        assert ref.verified

    def test_meet_candidate_with_wrong_base_rejected(self):
        ref = blocks.refute_meet_candidate(blocks.U12)
        assert ref.kind == "not_common_lower_bound" and ref.verified

    def test_sup_defeater_excises_second_block_point(self):
        ref = blocks.refute_singleton_sup_candidate(blocks.U12)
        assert ref.kind == "smaller_upper_bound"
        assert ref.witness == blocks.BlockElement(frozenset({1, 2}), frozenset({(2, 0)}))
        assert ref.verified

    def test_sup_candidate_without_block1_rejected(self):
        ref = blocks.refute_singleton_sup_candidate(blocks.U23)
        assert ref.kind == "not_upper_bound" and ref.verified

    def test_hundred_random_meet_candidates(self, rng):
        for i in range(100):
            cand = blocks.random_common_lower_bound(rng) if i % 2 else blocks.random_element(rng)
            ref = blocks.refute_meet_candidate(cand)
            assert ref.verified
            if ref.kind == "larger_common_lower_bound":
                assert blocks.lt(cand, ref.witness)
                assert blocks.le(ref.witness, blocks.U12) and blocks.le(ref.witness, blocks.U23)

    def test_hundred_random_sup_candidates(self, rng):
        for i in range(100):
            cand = blocks.random_b1_upper_bound(rng) if i % 2 else blocks.random_element(rng)
            ref = blocks.refute_singleton_sup_candidate(cand)
            assert ref.verified
            if ref.kind == "smaller_upper_bound":
                assert blocks.lt(ref.witness, cand)
                assert blocks.is_upper_bound_of_b1_singletons(ref.witness)
                for k in range(20):
                    assert blocks.le(blocks.singleton((1, k)), ref.witness)


class TestExtendedChain:
    def test_mixed_sum_rule(self):
        assert ec.oplus(ec.nat(3), ec.primed(5)) == ec.primed(2)
        assert ec.oplus(ec.nat(6), ec.primed(5)) is None
        assert ec.oplus(ec.primed(1), ec.primed(2)) is None
        assert ec.oplus(ec.nat(2), ec.nat(3)) == ec.nat(5)

    def test_total_order(self):
        assert ec.le(ec.nat(7), ec.primed(0))
        assert ec.le(ec.nat(7), ec.primed(100))
        assert not ec.le(ec.primed(100), ec.nat(7))
        assert ec.le(ec.primed(5), ec.primed(3))
        assert not ec.le(ec.primed(3), ec.primed(5))

    def test_ominus(self):
        assert ec.ominus(ec.primed(2), ec.nat(3)) == ec.primed(5)
        assert ec.ominus(ec.primed(3), ec.primed(5)) == ec.nat(2)

    def test_sampled_laws(self, rng):
        _check_family_laws(rng, ec.random_element, ec.oplus, ec.le,
                           ec.supplement, ec.ZERO, ec.ONE, ominus=ec.ominus)

    def test_mixed_sum_rule_quantified(self):
        # exact, not sampled: m + n' = (n-m)' precisely when m <= n
        for m in range(41):
            for n in range(41):
                got = ec.oplus(ec.nat(m), ec.primed(n))
                if m <= n:
                    assert got == ec.primed(n - m)
                else:
                    assert got is None

    def test_chain_is_not_principal_at_one(self):
        # like every nontrivial chain the family fails principality: 1 and 1
        # sit below 1, are orthogonal, but 1 + 1 = 2 is not below 1
        one_el = ec.nat(1)
        assert ec.oplus(one_el, one_el) == ec.nat(2)
        assert not ec.le(ec.nat(2), one_el)

    def test_atoms(self):
        assert ec.atoms_to_depth(20) == [ec.nat(1)]

    def test_atom_sums_are_the_naturals(self):
        reach = ec.reachable_by_atom_sums(7)
        assert reach == {ec.nat(k) for k in range(8)}

    def test_finite_multiset_of_atoms(self):
        acc = ec.ZERO
        for _ in range(7):
            acc = ec.oplus(acc, ec.nat(1))
        assert acc == ec.nat(7)

    def test_claim_report(self):
        rep = ec.not_orthoatomistic_report(5, 20)
        assert rep.claim_holds
        assert not rep.target_reachable
        assert len(rep.reachable) == 21 and rep.all_reachable_unprimed
        assert rep.chain_strictly_decreasing and rep.chain_all_upper_bounds
        assert rep.no_natural_upper_bound

    def test_report_rejects_tiny_depth(self):
        with pytest.raises(ValueError):
            ec.not_orthoatomistic_report(5, 3)

    def test_prefix_embeds_into_finite_chain(self):
        # order embedding of chain(n) into the family: low half unprimed,
        # high half primed, cross-checked against the finite model's order
        for n in (3, 6, 9):
            fin_chain = ea.chain(n)
            order = ea.derive_order(fin_chain)
            cut = (n + 1) // 2

            def embed(i):
                return ec.nat(i) if i <= cut else ec.primed(n - i)

            for i in range(n + 1):
                for j in range(n + 1):
                    assert order.le(i, j) == ec.le(embed(i), embed(j))


class TestBalanced:
    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            balanced.direct(balanced.xp(0))

    def test_supplement_of_atom(self):
        a = balanced.atom(1, 1)
        assert balanced.supplement(a) == balanced.codirect(balanced.xp(1), balanced.yp(1))

    def test_oplus_direct_into_complement(self):
        a = balanced.atom(0, 0)
        hole = balanced.codirect(balanced.xp(0), balanced.yp(0), balanced.xp(1), balanced.yp(1))
        assert balanced.oplus(a, hole) == balanced.codirect(balanced.xp(1), balanced.yp(1))

    def test_sampled_laws(self, rng):
        _check_family_laws(rng, balanced.random_element, balanced.oplus, balanced.le,
                           balanced.supplement, balanced.ZERO, balanced.ONE,
                           ominus=balanced.ominus)

    def test_sampled_principality(self, rng):
        _check_sampled_principality(rng, balanced.random_element,
                                    balanced.oplus, balanced.le)

    def test_decomposition_sorted_pairing(self):
        u = balanced.direct(balanced.xp(1), balanced.xp(2), balanced.yp(3), balanced.yp(5))
        parts = balanced.atom_decomposition(u)
        assert parts == [balanced.atom(1, 3), balanced.atom(2, 5)]

    def test_decomposition_of_atom_and_zero(self):
        a = balanced.atom(1, 1)
        assert balanced.atom_decomposition(a) == [a]
        assert balanced.atom_decomposition(balanced.ZERO) == []

    def test_decomposition_folds_back(self, rng):
        for _ in range(300):
            u = balanced.random_element(rng)
            if u.complemented:
                continue
            parts = balanced.atom_decomposition(u)
            acc = balanced.ZERO
            for p in parts:
                acc = balanced.oplus(acc, p)
            assert acc == u

    def test_two_minimal_upper_bounds(self):
        analysis = balanced.two_minimal_upper_bounds()
        assert len(analysis.upper_bounds) == 3
        assert len(analysis.minimal_upper_bounds) == 2
        assert analysis.incomparable
        assert analysis.supremum is None
        assert analysis.weakly_orthocomplete_violated
        described = {u.describe() for u in analysis.minimal_upper_bounds}
        assert described == {"(X∪Y)∖{x0,y0}", "(X∪Y)∖{x0,y1}"}

    def test_upper_bounds_dominate_system_members(self):
        analysis = balanced.two_minimal_upper_bounds(depth=40)
        for u in analysis.upper_bounds:
            for i in range(1, 41):
                assert balanced.le(balanced.pairing_system_member(i), u)
