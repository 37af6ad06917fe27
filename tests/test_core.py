"""Axiom checking, the induced order, bounds and multiset sums."""

import itertools

import pytest

import effalg as ea
from effalg import core
from effalg.core import FiniteEffectAlgebra

from conftest import even_subset_index


def tiny(entries, n, one):
    return FiniteEffectAlgebra.from_entries(n, one, entries)


class TestConstruction:
    def test_zero_one_distinct(self):
        with pytest.raises(ValueError):
            FiniteEffectAlgebra.from_entries(2, 0, {(0, 0): 0})

    def test_size_floor(self):
        with pytest.raises(ValueError):
            FiniteEffectAlgebra.from_entries(1, 0, {})

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            tiny({(0, 0): 0, (0, 1): 5}, 2, 1)

    def test_conflicting_orientations(self):
        with pytest.raises(ValueError):
            tiny({(1, 2): 3, (2, 1): 0}, 4, 3)

    def test_either_orientation_accepted(self):
        a = tiny({(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 2): 2}, 3, 2)
        b = tiny({(0, 0): 0, (1, 0): 1, (2, 0): 2, (2, 1): 2}, 3, 2)
        assert a == b

    def test_with_entry_roundtrip(self, chain5):
        assert chain5.with_entry(1, 1, None).sum_of(1, 1) is None
        assert chain5.with_entry(1, 1, 2) == chain5
        with pytest.raises(ValueError, match="out of range"):
            chain5.with_entry(-1, 1, None)  # would wrap to the last row


class TestModelCopies:
    def test_replace_checks_like_the_constructor(self, chain5):
        with pytest.raises(ValueError, match="unit index 0 out of range"):
            chain5._replace(one=0)
        rows = [list(row) for row in chain5.table]
        rows[1][2] = None  # (2, 1) still holds 3
        with pytest.raises(ValueError, match="not symmetric in row 1"):
            chain5._replace(table=tuple(map(tuple, rows)))
        with pytest.raises(TypeError):
            chain5._replace(_memo={})

    def test_fields_cannot_be_assigned_or_deleted(self):
        model = ea.chain(3)
        for field in ("size", "one", "table", "labels", "name", "_memo", "other"):
            with pytest.raises(AttributeError):
                setattr(model, field, None)
            with pytest.raises(AttributeError):
                delattr(model, field)
        assert model == ea.chain(3) and model.name == ea.chain(3).name

    def test_equality_and_hash_ignore_labels_and_name(self, boolean3):
        relabelled = boolean3._replace(labels=tuple(f"x{i}" for i in range(8)), name="other")
        assert relabelled == boolean3 and hash(relabelled) == hash(boolean3)
        assert (relabelled.labels, relabelled.name) != (boolean3.labels, boolean3.name)
        assert relabelled != boolean3.with_entry(1, 2, None)
        assert boolean3 != (boolean3.size, boolean3.one, boolean3.table)

    def test_replace_starts_with_an_empty_memo(self, boolean3):
        ea.profile(boolean3)
        assert boolean3._memo
        copy = boolean3._replace(name="copy")
        assert not copy._memo and copy.table is boolean3.table
        assert ea.profile(copy) == ea.profile(boolean3)
        assert not boolean3._replace()._memo


class TestSymmetricTable:
    @staticmethod
    def assert_symmetric(alg):
        for a in range(alg.size):
            for b in range(alg.size):
                assert alg.table[a][b] == alg.table[b][a] == alg.sum_of(b, a)

    def test_table_is_symmetric(self, small_corpus):
        for alg in small_corpus:
            self.assert_symmetric(alg)

    def test_invalid_table(self, chain5):
        broken = chain5.with_entry(1, 3, None).with_entry(2, 2, 1)
        assert not ea.validate(broken).valid
        self.assert_symmetric(broken)
        assert broken.table[3][1] is None and broken.table[2][2] == 1

    def test_edited_copy_starts_fresh(self, boolean3):
        ea.profile(boolean3)
        assert boolean3._memo
        edited = boolean3.with_entry(1, 2, None)
        assert not edited._memo
        self.assert_symmetric(edited)
        assert edited.table[1][2] is None and boolean3.table[1][2] is not None

    def test_constructor_refuses_malformed_tables(self, chain5):
        n, one, table = chain5.size, chain5.one, chain5.table
        rows = [list(row) for row in table]
        rows[1][2] = None  # (2, 1) still holds 3
        lopsided = tuple(map(tuple, rows))
        with pytest.raises(ValueError, match="not symmetric in row 1"):
            FiniteEffectAlgebra(n, one, lopsided)
        for shape in (table[:-1], table[:-1] + (table[-1][:-1],)):
            with pytest.raises(ValueError, match=f"{n} row tuples of {n} cells"):
                FiniteEffectAlgebra(n, one, shape)
        rows = [list(row) for row in table]
        rows[2][2] = n
        with pytest.raises(ValueError, match=f"table entry {n} out of range"):
            FiniteEffectAlgebra(n, one, tuple(map(tuple, rows)))


class TestValidate:
    def test_smallest_nontrivial_chain_is_valid(self):
        # {0, a, 1} with a ⊕ a = 1: every axiom checkable by hand.
        c2 = tiny({(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 2}, 3, 2)
        assert ea.validate(c2).valid

    def test_deleting_the_self_sum_loses_the_supplement(self):
        c2 = tiny({(0, 0): 0, (0, 1): 1, (0, 2): 2}, 3, 2)
        rep = ea.validate(c2)
        assert not rep.valid
        assert rep.axiom_ids() == {"A3"}
        # 1 has no x with 1 ⊕ x = 2
        assert any(v.witness == (1,) for v in rep.violations)

    def test_two_supplements_for_one_element(self):
        # {0, a, b, 1} with a⊕a = 1 and a⊕b = 1: supplement of a not unique.
        alg = tiny({(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
                    (1, 1): 3, (1, 2): 3}, 4, 3)
        rep = ea.validate(alg)
        assert not rep.valid
        assert rep.axiom_ids() == {"A3"}
        bad = [v for v in rep.violations if v.witness[0] == 1]
        assert bad and set(bad[0].witness[1:]) == {1, 2}

    def test_constructors_validate(self, small_corpus):
        for alg in small_corpus:
            assert ea.validate(alg).valid, alg.name

    def test_lexicographically_first_a2_witness(self):
        # chain(4) with 1 ⊕ 1 rewired to 3: (2⊕1)⊕1 exists, 2⊕(1⊕1) = 2⊕3 does not.
        broken = ea.chain(4).with_entry(1, 1, 3)
        rep = ea.validate(broken)
        a2 = [v for v in rep.violations if v.axiom == "A2"]
        assert a2
        first = min(v.witness for v in a2)
        assert first == a2[0].witness


class TestDerivedOrder:
    def test_chain3_total_order(self):
        # oracle: apply the definition a<=b iff some c has a+c=b to the raw table
        c3 = ea.chain(3)
        expected = {(a, b): any(c3.sum_of(a, c) == b for c in range(4))
                    for a in range(4) for b in range(4)}
        order = ea.derive_order(c3)
        for (a, b), want in expected.items():
            assert order.le(a, b) == want
        assert all(order.le(a, b) == (a <= b) for a in range(4) for b in range(4))

    def test_boolean_order_is_inclusion(self, boolean3):
        order = ea.derive_order(boolean3)
        for a in range(8):
            for b in range(8):
                assert order.le(a, b) == (a & b == a)

    def test_even_subset_order_is_inclusion(self, even6):
        masks = [x for x in range(64) if bin(x).count("1") % 2 == 0]
        order = ea.derive_order(even6)
        for i, x in enumerate(masks):
            for j, y in enumerate(masks):
                assert order.le(i, j) == (x & y == x)

    def test_horizontal_sum_incomparable_middles(self, hsum22):
        order = ea.derive_order(hsum22)
        a, b = 1, 2
        assert not order.le(a, b) and not order.le(b, a)
        assert order.le(0, a) and order.le(a, 3)

    def test_supplement_involution_and_antitone(self, small_corpus):
        for alg in small_corpus:
            order = ea.derive_order(alg)
            supp = order.supplement
            for a in range(alg.size):
                assert supp[supp[a]] == a
                for b in range(alg.size):
                    if order.le(a, b):
                        assert order.le(supp[b], supp[a])

    def test_ominus_is_the_sum_witness(self, small_corpus):
        for alg in small_corpus:
            order = ea.derive_order(alg)
            for a, differences in enumerate(order.ominus):
                for b, c in differences.items():
                    assert alg.sum_of(a, c) == b
                    assert order.le(a, b)

    def test_rejects_invalid(self):
        broken = ea.chain(3).with_entry(1, 2, None)
        with pytest.raises(ea.InvalidModelError):
            ea.derive_order(broken)

    # Symmetric tables that pass no validation, each breaking one theorem
    # that derive_order re-checks and none that it checks before.
    @pytest.mark.parametrize("size,one,entries,message", [
        # 1 ⊕ 1 = 1 ⊕ 2 = 3.  A supplement that is no involution needs a row
        # holding the unit twice, which this check refuses, so derive_order
        # has no involution check of its own.
        (4, 3, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 1): 3, (1, 2): 3},
         "difference not unique: 3 ⊖ 1 ∈ {1, 2}"),
        # 1 ⊕ 2 = 2 puts 1 below 2, and 2 ⊕ 2 = 1 puts 2 below 1
        (3, 1, {(1, 2): 2, (2, 2): 1}, "order not antisymmetric at (1, 2)"),
        # 1 below 2 below 0, and 1 not below 0
        (3, 1, {(1, 2): 2, (2, 2): 0}, "order not transitive at (1, 2)"),
        # no sums at all: 0 is below nothing but itself
        (3, 1, {}, "0 and 1 are not the bounds of the induced order"),
        # 1 ⊕ 1 = 3 puts 1 below 3, yet 3′ = 4 is not below 1′ = 2
        (6, 5, {**{(0, t): t for t in range(6)}, (1, 2): 5, (3, 4): 5, (1, 1): 3},
         "orthosupplement is not antitone"),
        # nothing sums with 0 to 0, so 0 ⊖ 0 is missing
        (3, 1, {(0, 1): 1, (0, 2): 2, (2, 2): 1}, "difference domain does not match the order"),
        # a chain 0 < 1 < 2 < 3 whose unit's row is empty: 3 ⊖ 3 and 3′ are
        # missing, and the domain check speaks before the supplement is read
        (4, 3, {(0, 0): 2, (0, 1): 1, (0, 2): 3, (1, 1): 3, (1, 2): 2},
         "difference domain does not match the order"),
        # rows 5 and 3 each hold 4 twice; pairs a <= b in index order reach
        # row 5's conflict at (2, 5) before row 3's at (3, 7), so a build
        # row by row, which would name 4 ⊖ 3 ∈ {6, 7}, must not be used
        (8, 7, {(1, 5): 4, (2, 5): 4, (3, 6): 4, (3, 7): 4},
         "difference not unique: 4 ⊖ 5 ∈ {1, 2}"),
    ])
    def test_fault_messages(self, monkeypatch, size, one, entries, message):
        monkeypatch.setattr(core, "require_valid", lambda alg: None)
        with pytest.raises(ea.InvariantViolation) as err:
            ea.derive_order(tiny(entries, size, one))
        assert str(err.value) == message


class TestOrthogonality:
    def test_chain3_lookups(self):
        c3 = ea.chain(3)
        assert ea.is_orthogonal(c3, 1, 2)
        assert not ea.is_orthogonal(c3, 2, 2)

    def test_zero_orthogonal_to_everything(self, small_corpus):
        for alg in small_corpus:
            assert all(ea.is_orthogonal(alg, 0, x) for x in range(alg.size))

    def test_order_that_disagrees_with_the_table_is_named(self, monkeypatch):
        c3 = ea.chain(3)
        order = ea.derive_order(c3)
        # 1 + 2 is defined, but with 2′ bent to 0 the order says 1 is not below 2′
        bent = order._replace(supplement=(3, 0, 0, 0))
        monkeypatch.setattr(core, "derive_order", lambda _alg: bent)
        with pytest.raises(ea.InvariantViolation,
                           match=r"^orthogonality mismatch at \(1, 2\): table says True, "
                                 r"order says False$"):
            ea.is_orthogonal(c3, 1, 2)


class TestOutOfCarrierIndices:
    @pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "size"])
    def test_readers_reject_indices_off_the_carrier(self, bad):
        c3 = ea.chain(3)
        assert c3.size == 4
        readers = (c3.sum_of, c3.defined, lambda a, b: ea.is_orthogonal(c3, a, b))
        for read in readers:
            for a, b in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(ValueError, match="out of range for carrier of size 4"):
                    read(a, b)

    @pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "size"])
    def test_element_readers_reject_indices_off_the_carrier(self, bad):
        c3 = ea.chain(3)
        for read in (ea.atoms_below, ea.atom_decomposition, ea.is_principal,
                     ea.isotropic_index):
            with pytest.raises(ValueError, match="out of range"):
                read(c3, bad)


class TestMultisetSum:
    def test_chain4_examples(self):
        c4 = ea.chain(4)
        assert ea.oplus_multiset(c4, [1, 1, 2]) == 4
        assert ea.oplus_multiset(c4, [2, 2, 1]) is None
        assert ea.oplus_multiset(c4, {1: 2, 2: 1}) == 4

    def test_empty_sum_is_zero(self, small_corpus):
        for alg in small_corpus:
            assert ea.oplus_multiset(alg, []) == 0

    def test_negative_multiplicity_rejected(self, chain5):
        with pytest.raises(ValueError):
            ea.oplus_multiset(chain5, {1: -1})

    def test_fold_order_invariance(self, enumerated_le5, rng):
        # two random fold orders per multiset, on every small model
        for alg in enumerated_le5:
            for _ in range(40):
                items = [rng.randrange(alg.size) for _ in range(rng.randint(0, 5))]
                reference = ea.oplus_multiset(alg, items)
                for _ in range(2):
                    shuffled = items[:]
                    rng.shuffle(shuffled)
                    acc, ok = 0, True
                    for v in shuffled:
                        nxt = alg.sum_of(acc, v)
                        if nxt is None:
                            ok = False
                            break
                        acc = nxt
                    assert (acc if ok else None) == reference

    def test_defined_total_forces_defined_subsums(self, enumerated_le5):
        for alg in enumerated_le5:
            values = list(range(1, alg.size))
            for r in range(1, 4):
                for combo in itertools.combinations_with_replacement(values, r):
                    if ea.oplus_multiset(alg, combo) is None:
                        continue
                    for k in range(r):
                        sub = combo[:k] + combo[k + 1:]
                        assert ea.oplus_multiset(alg, sub) is not None


class TestBounds:
    def test_even6_upper_bounds(self, even6):
        i_ab = even_subset_index(6, 0b000011)
        i_bc = even_subset_index(6, 0b000110)
        ubs = ea.upper_bounds(even6, [i_ab, i_bc])
        # oracle: scan all 32 subsets for inclusion of {a,b,c}
        masks = [x for x in range(64) if bin(x).count("1") % 2 == 0]
        expected = {i for i, m in enumerate(masks) if m & 0b111 == 0b111}
        assert ubs == expected
        assert {even6.label(i) for i in ubs} == {"{a,b,c,d}", "{a,b,c,e}", "{a,b,c,f}", "X"}

    def test_empty_set_bounds(self, chain5):
        assert ea.upper_bounds(chain5, []) == set(range(6))
        assert ea.supremum(chain5, []) == 0
        assert ea.infimum(chain5, []) == 5

    def test_unit_bounds(self, even6):
        assert ea.upper_bounds(even6, [even6.one]) == {even6.one}

    def test_lower_bounds(self, even6, chain5):
        i_abcd = even_subset_index(6, 0b001111)
        i_cdef = even_subset_index(6, 0b111100)
        masks = [x for x in range(64) if bin(x).count("1") % 2 == 0]
        expected = {i for i, m in enumerate(masks) if m & 0b001111 == m and m & 0b111100 == m}
        assert ea.lower_bounds(even6, [i_abcd, i_cdef]) == expected
        assert ea.lower_bounds(chain5, [2, 4]) == {0, 1, 2}
        assert ea.lower_bounds(chain5, []) == set(range(6))

    def test_even6_minimal_upper_bounds(self, even6):
        i_ab = even_subset_index(6, 0b000011)
        i_bc = even_subset_index(6, 0b000110)
        mubs = ea.minimal_upper_bounds(even6, [i_ab, i_bc])
        assert {even6.label(i) for i in mubs} == {"{a,b,c,d}", "{a,b,c,e}", "{a,b,c,f}"}

    def test_boolean_minimal_upper_bound_is_union(self, boolean3):
        for s in ([1, 2], [3, 5], [1, 2, 4]):
            union = 0
            for x in s:
                union |= x
            assert ea.minimal_upper_bounds(boolean3, s) == {union}
            assert ea.supremum(boolean3, s) == union

    def test_chain_minimal_upper_bounds(self, chain5):
        assert ea.minimal_upper_bounds(chain5, [2, 3]) == {3}

    def test_even6_sup_and_inf(self, even6):
        i1 = even_subset_index(6, 0b000011)   # {a,b}
        i2 = even_subset_index(6, 0b001100)   # {c,d}
        assert ea.supremum(even6, [i1, i2]) == even_subset_index(6, 0b001111)
        i_abcd = even_subset_index(6, 0b001111)
        i_cdef = even_subset_index(6, 0b111100)
        assert ea.infimum(even6, [i_abcd, i_cdef]) == even_subset_index(6, 0b001100)
        i_ab = even_subset_index(6, 0b000011)
        i_bc = even_subset_index(6, 0b000110)
        assert ea.supremum(even6, [i_ab, i_bc]) is None

    def test_bound_functions_match_their_definitions(self, small_corpus, even6_meetless_first):
        # Brute force from order.le alone, on every set of at most 2 elements
        # (3 on carriers of at most 10).
        models = small_corpus + [even6_meetless_first]
        models += [m for n in range(2, 7) for m in ea.enumerate_up_to_iso(n)]
        for alg in models:
            order = ea.derive_order(alg)
            le = order.le
            carrier = range(alg.size)
            for r in range(4 if alg.size <= 10 else 3):
                for s in itertools.combinations(carrier, r):
                    ub = [u for u in carrier if all(le(x, u) for x in s)]
                    lb = [v for v in carrier if all(le(v, x) for x in s)]
                    least = [u for u in ub if all(le(u, v) for v in ub)]
                    greatest = [v for v in lb if all(le(w, v) for w in lb)]
                    minimal = {u for u in ub if not any(le(v, u) and v != u for v in ub)}
                    assert ea.supremum(alg, s) == (least[0] if least else None), (alg, s)
                    assert ea.infimum(alg, s) == (greatest[0] if greatest else None), (alg, s)
                    assert ea.minimal_upper_bounds(alg, s) == minimal, (alg, s)

    @pytest.mark.parametrize("fn", [ea.upper_bounds, ea.lower_bounds, ea.minimal_upper_bounds,
                                    ea.supremum, ea.infimum])
    def test_bound_functions_refuse_elements_off_the_carrier(self, fn, chain5):
        # -1 would silently pick the last entry of a per-element table
        for bad in (-1, chain5.size):
            for elems in ([bad], [0, bad], [bad, 2]):
                with pytest.raises(ValueError, match="out of range"):
                    fn(chain5, elems)


class TestValidModelLaws:
    def test_cancellation(self, small_corpus):
        for alg in small_corpus:
            order = ea.derive_order(alg)
            for a in range(alg.size):
                partners = [(b, alg.sum_of(a, b)) for b in range(alg.size) if alg.defined(a, b)]
                for b, ab in partners:
                    for c, ac in partners:
                        if order.le(ab, ac):
                            assert order.le(b, c)

    def test_sum_with_zero(self, small_corpus):
        for alg in small_corpus:
            for a in range(alg.size):
                assert alg.sum_of(a, 0) == a

    def test_sup_below_oplus(self, small_corpus):
        for alg in small_corpus:
            order = ea.derive_order(alg)
            for a, b, c in alg.defined_pairs():
                s = ea.supremum(alg, (a, b))
                if s is not None:
                    assert order.le(s, c)

    def test_bounded_poset(self, small_corpus):
        for alg in small_corpus:
            order = ea.derive_order(alg)
            for a in range(alg.size):
                assert order.le(0, a) and order.le(a, alg.one)
