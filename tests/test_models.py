"""Constructors, recipes, and the .efa serialization round trip."""

import pytest

import effalg as ea
from effalg.models import EfaParseError, dumps, loads, parse_recipe


class TestConstructors:
    def test_boolean_sizes_and_bounds(self):
        for k in range(1, 7):
            alg = ea.boolean_algebra(k)
            assert alg.size == 2 ** k
            assert alg.one == alg.size - 1
            assert ea.validate(alg).valid

    def test_boolean_structure(self, boolean3):
        prof = ea.profile(boolean3)
        flags = prof.flags()
        assert flags["atomistic"] and flags["orthoatomistic"] and flags["disjunctive"]
        assert [boolean3.label(a) for a in prof.atoms] == ["{a}", "{b}", "{c}"]

    def test_boolean_invariants_for_every_k(self):
        for k in range(1, 7):
            prof = ea.profile(ea.boolean_algebra(k))
            assert prof.atomistic and prof.orthoatomistic and prof.disjunctive
            assert prof.oml and len(prof.atoms) == k

    def test_even8_is_an_omp_and_not_a_lattice(self):
        prof = ea.profile(ea.even_subset_omp(8))
        assert prof.omp and not prof.lattice
        assert len(prof.atoms) == 28

    def test_boolean_one_point_is_two_element_algebra(self):
        assert ea.boolean_algebra(1) == ea.chain(1)

    def test_even_subset_sizes(self):
        assert ea.even_subset_omp(2).size == 2
        assert ea.even_subset_omp(4).size == 8
        assert ea.even_subset_omp(6).size == 32

    def test_even_subset_omp_for_every_even_m(self):
        for m in (2, 4, 6, 8):
            alg = ea.even_subset_omp(m)
            assert ea.validate(alg).valid
            assert ea.classify(alg).omp

    def test_even4_is_lattice_even6_not(self, even6):
        assert ea.classify(ea.even_subset_omp(4)).lattice
        assert not ea.classify(even6).lattice

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            ea.even_subset_omp(5)

    def test_chain_profile_separation(self, chain5):
        flags = ea.profile(chain5).flags()
        assert flags["orthoatomistic"] and not flags["atomistic"] and not flags["disjunctive"]

    def test_chain_is_lattice_not_orthoalgebra(self):
        for n in (2, 3, 7):
            cls = ea.classify(ea.chain(n))
            assert cls.lattice and not cls.orthoalgebra

    def test_chain1_is_two_element(self):
        assert ea.chain(1).size == 2

    def test_chain_caps(self):
        with pytest.raises(ValueError):
            ea.chain(0)
        with pytest.raises(ValueError):
            ea.chain(65)
        assert ea.validate(ea.chain(64)).valid

    def test_hsum_of_two_c2(self, hsum22):
        assert hsum22.size == 4
        order = ea.derive_order(hsum22)
        assert order.supplement[1] == 1 and order.supplement[2] == 2

    def test_hsum_with_two_element_algebra_is_identity(self):
        for alg in (ea.chain(3), ea.boolean_algebra(2)):
            glued = ea.horizontal_sum(alg, ea.chain(1))
            assert glued.table == alg.table and glued.one == alg.one

    def test_hsum_c2_c3_valid(self):
        alg = ea.horizontal_sum(ea.chain(2), ea.chain(3))
        assert alg.size == 5
        assert ea.validate(alg).valid

    def test_hsum_rejects_invalid_operand(self):
        broken = ea.chain(3).with_entry(1, 2, None)
        with pytest.raises(ea.InvalidModelError):
            ea.horizontal_sum(broken, ea.chain(2))

    def test_hsum_accepts_operands_with_relocated_units(self):
        # loaded models may carry their unit anywhere; gluing must not care
        weird = ea.permute(ea.chain(3), (0, 1, 3, 2))
        assert weird.one == 2
        glued = ea.horizontal_sum(weird, ea.chain(2))
        assert ea.validate(glued).valid
        reference = ea.horizontal_sum(ea.chain(3), ea.chain(2))
        from effalg.enumeration import canonical_form
        assert canonical_form(glued) == canonical_form(reference)


class TestRecipes:
    def test_parametric(self):
        assert parse_recipe("chain:5") == ea.chain(5)
        assert parse_recipe("boolean:3") == ea.boolean_algebra(3)
        assert parse_recipe("even_subsets:4") == ea.even_subset_omp(4)

    def test_nested_horizontal_sum(self):
        alg = parse_recipe("horizontal_sum(chain:2,horizontal_sum(chain:2,chain:2))")
        assert alg.size == 5
        assert ea.validate(alg).valid

    def test_unknown_recipe(self):
        with pytest.raises(ValueError):
            parse_recipe("moebius:3")


class TestEfaFormat:
    def test_round_trip_equal_table(self, tmp_path):
        for alg in (ea.chain(3), ea.boolean_algebra(2), ea.even_subset_omp(4)):
            path = tmp_path / "m.efa"
            ea.save(alg, path)
            again = ea.load(path)
            assert again == alg
            assert again.labels == alg.labels

    def test_round_trip_is_byte_stable(self, tmp_path):
        # identical payload up to the name comment, which is presentation only
        def payload(text):
            return [ln for ln in text.splitlines() if not ln.startswith("#")]

        alg = ea.even_subset_omp(4)
        text = dumps(alg)
        assert payload(dumps(loads(text))) == payload(text)

    def test_zero_row_omitted_and_reinserted(self):
        text = dumps(ea.chain(2))
        assert "sum: 0" not in text
        assert loads(text).sum_of(0, 1) == 1

    def test_conflicting_orientations_is_parse_error(self):
        text = "elements: 5\none: 4\nsum: 1 2 3\nsum: 2 1 4\n"
        with pytest.raises(EfaParseError) as err:
            loads(text)
        assert err.value.line == 4

    def test_duplicate_identical_sum_is_fine(self):
        text = "elements: 3\none: 2\nsum: 1 1 2\nsum: 1 1 2\n"
        assert loads(text).sum_of(1, 1) == 2

    def test_header_last_loads_like_header_first(self):
        text = dumps(ea.even_subset_omp(4))
        header = [ln for ln in text.splitlines(keepends=True)
                  if ln.startswith(("elements:", "one:"))]
        body = [ln for ln in text.splitlines(keepends=True) if ln not in header]
        assert len(header) == 2 and any(ln.startswith("label:") for ln in body)
        first, last = loads(text), loads("".join(body + header))
        assert last == first and last.labels == first.labels

    def test_sum_line_overrides_the_implicit_zero_sum(self):
        alg = loads("elements: 3\none: 2\nsum: 1 0 2\n")
        assert alg.table[1][0] == alg.table[0][1] == 2
        assert [alg.sum_of(0, x) for x in (0, 2)] == [0, 2]
        assert loads("elements: 3\none: 2\nsum: 0 0 1\n").sum_of(0, 0) == 1

    def test_conflict_names_the_last_agreeing_line(self):
        text = "elements: 5\none: 4\nsum: 1 2 3\n# note\nsum: 2 1 3\nsum: 1 2 3\nsum: 2 1 4\n"
        with pytest.raises(EfaParseError) as err:
            loads(text)
        assert str(err.value) == "line 7: conflicting sum for pair (1,2): 3 (line 6) vs 4"

    def test_missing_one_header(self):
        with pytest.raises(EfaParseError, match="missing 'one'"):
            loads("elements: 3\nsum: 1 1 2\n")

    def test_missing_elements_header(self):
        with pytest.raises(EfaParseError, match="missing 'elements'"):
            loads("one: 2\n")

    def test_carrier_size_limit(self):
        from effalg.models import EFA_MAX_ELEMENTS

        assert EFA_MAX_ELEMENTS >= ea.boolean_algebra(10).size
        assert loads(f"elements: {EFA_MAX_ELEMENTS}\none: 1\n").size == EFA_MAX_ELEMENTS
        with pytest.raises(EfaParseError) as err:
            loads(f"# too big\nelements: {EFA_MAX_ELEMENTS + 1}\none: 1\n")
        assert err.value.line == 2

    def test_duplicate_header(self):
        with pytest.raises(EfaParseError):
            loads("elements: 3\nelements: 3\none: 2\n")

    def test_out_of_range_sum(self):
        with pytest.raises(EfaParseError):
            loads("elements: 3\none: 2\nsum: 1 1 7\n")

    def test_conflicting_labels_is_parse_error(self):
        text = "elements: 3\none: 2\nlabel: 1 a\nsum: 1 1 2\nlabel: 1 b\n"
        with pytest.raises(EfaParseError, match=r"'a' \(line 3\) vs 'b'") as err:
            loads(text)
        assert err.value.line == 5
        assert loads(text.replace("label: 1 b", "label: 1  a ")).label(1) == "a"

    def test_comments_and_labels(self):
        text = "# a comment\nelements: 3\none: 2\nlabel: 1 atom\nsum: 1 1 2\n"
        alg = loads(text)
        assert alg.label(1) == "atom"

    def test_loaded_invalid_table_reports_not_raises(self):
        # parsing accepts structurally fine tables; validity is a separate report
        alg = loads("elements: 3\none: 2\n")  # 1 has no supplement
        rep = ea.validate(alg)
        assert not rep.valid and rep.axiom_ids() == {"A3"}
