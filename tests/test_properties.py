"""Property deciders and their cross-property laws."""

import math

import effalg as ea

from conftest import even_subset_index


class TestPrincipal:
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

    def test_even2_is_two_element_algebra(self):
        assert ea.even_subset_omp(2).size == 2


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


class TestDisjunctive:
    def test_chain5_counterexample(self, chain5):
        verdict = ea.is_disjunctive(chain5)
        assert not verdict.ok and verdict.witness == (2, 1)

    def test_boolean_and_even6(self, boolean3, even6):
        assert ea.is_disjunctive(boolean3).ok
        assert ea.is_disjunctive(even6).ok


class TestOrthocompleteness:
    def test_even6(self, even6):
        assert ea.is_orthocomplete(even6).ok
        assert ea.is_weakly_orthocomplete(even6).ok

    def test_chain3_and_hsum(self, hsum22):
        for alg in (ea.chain(3), hsum22):
            assert ea.is_orthocomplete(alg).ok
            assert ea.is_weakly_orthocomplete(alg).ok

    def test_scan_visits_every_orthogonal_multiset_on_chain(self):
        from effalg.properties import _ortho_scan

        # partitions of 1..5 into parts, plus the empty system: 1+2+3+5+7+1
        assert _ortho_scan(ea.chain(5)).systems_checked == 19


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
