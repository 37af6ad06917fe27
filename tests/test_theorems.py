"""Executable-law checks on individual models and over the enumeration."""

import random

import pytest

import effalg as ea
from effalg import core, properties, theorems
from effalg.properties import Decision
from effalg.theorems import (
    CHECK_IDS, FAIL, PASS, VACUOUS, CheckResult, _cancellation, run_all, run_exhaustive)

from conftest import bent_copies


def _cancellation_by_definition(alg, order):
    """a⊕b <= a⊕c implies b <= c, over every triple with both sums defined;
    the first failing triple in (a, b, c) order is the witness."""
    n = alg.size
    lab = alg.label
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab, ac = alg.sum_of(a, b), alg.sum_of(a, c)
                if ab is not None and ac is not None and order.le(ab, ac) and not order.le(b, c):
                    return CheckResult(FAIL, {"a": lab(a), "b": lab(b), "c": lab(c)})
    return CheckResult(PASS)


class TestRunAll:
    def test_chain5_statuses(self, chain5):
        rep = run_all(chain5)
        assert rep.all_pass
        r = rep.results
        assert r["thm_3_2"].status == PASS           # both sides false
        assert r["thm_3_7_finite"].status == PASS    # hypotheses hold, orthoatomistic
        assert r["prop_2_6"].status == VACUOUS       # not an orthoalgebra
        assert r["prop_2_8"].status == PASS          # orthocomplete branch is live
        assert r["prop_3_3"].status == PASS          # lattice branch is live
        assert r["omp_implies_orthoalgebra"].status == VACUOUS
        assert r["orthoatomistic_omp_implies_atomistic"].status == VACUOUS
        assert r["self_orthogonal_zero"].status == VACUOUS
        assert r["cancellation"].status == PASS

    def test_even6_all_pass_nothing_vacuous(self, even6):
        rep = run_all(even6)
        assert rep.all_pass
        assert all(res.status == PASS for res in rep.results.values())

    def test_hsum22_routes_agree(self, hsum22):
        rep = run_all(hsum22)
        assert rep.results["omp_iff_principal_iff_join"].status == PASS
        assert rep.all_pass

    def test_sup_le_oplus_names_the_first_failing_pair(self, monkeypatch):
        # a fake join, the unit, for every pair with a nonzero first element:
        # every such pair with a sum below the unit fails, and the witness is
        # the first of them in defined_pairs order
        alg = ea.chain(5)
        pairs = list(alg.defined_pairs())
        monkeypatch.setattr(theorems, "pair_joins",
                            lambda m: tuple(m.one if a else None for a, _, _ in pairs))
        failing = [(a, b, c) for a, b, c in pairs if a and c != alg.one]
        assert len(failing) > 2
        a, b, c = failing[0]
        assert run_all(alg).results["sup_le_oplus"] == CheckResult(
            FAIL, {"a": str(a), "b": str(b), "sup": "5", "oplus": str(c)})

    def test_thm_3_7_is_vacuous_without_atomicity(self, monkeypatch):
        # the other two hypotheses hold on every finite model
        monkeypatch.setattr(properties, "is_atomic", lambda alg: False)
        for alg in (ea.chain(5), ea.boolean_algebra(3)):
            assert run_all(alg).results["thm_3_7_finite"] == CheckResult(VACUOUS)

    def test_check_id_catalog(self, boolean3):
        rep = run_all(boolean3)
        assert tuple(rep.results) == CHECK_IDS

    def test_fail_is_reported_not_raised(self, monkeypatch):
        # run_all evaluates statements on whatever valid model it is given;
        # a fabricated report with a fail must surface through `failed`
        rep = run_all(ea.chain(2))
        assert rep.failed == ()
        # a fabricated join route makes the OMP routes disagree: profile
        # raises, run_all reports the failed check
        import effalg.properties as props

        monkeypatch.setattr(props, "pair_joins",
                            lambda alg: (None,) * len(list(alg.defined_pairs())))
        model = ea.boolean_algebra(2)
        with pytest.raises(ea.InvariantViolation):
            ea.profile(model)
        assert run_all(model).failed == ("omp_iff_principal_iff_join",)

    def test_cancellation_matches_definition(self, reference_corpus):
        for alg in reference_corpus:
            assert run_all(alg).results["cancellation"] \
                == _cancellation_by_definition(alg, ea.derive_order(alg)) == CheckResult(PASS)

    def test_cancellation_matches_definition_on_bent_orders(self, reference_corpus, monkeypatch):
        # a bent order breaks cancellation; only the check reads the bent
        # order, every decider still reads the real one
        witnesses = []
        for alg in reference_corpus:
            for model, bent in bent_copies(alg):
                monkeypatch.setattr(theorems, "derive_order", lambda _alg: bent)
                result = run_all(model).results["cancellation"]
                assert result == _cancellation_by_definition(model, bent), alg.name
                witnesses.append(result.witness)
        failed = [tuple(w.values()) for w in witnesses if w is not None]
        assert len(failed) > len(witnesses) // 4
        assert len(set(failed)) > 15

    def test_cancellation_matches_definition_on_broken_tables(self, reference_corpus):
        # one cell overwritten: a⊕c = a⊕c' for some c != c' is possible, and
        # the check must still find the first failing triple of the table
        rng = random.Random(3)
        statuses = set()
        for alg in reference_corpus:
            order = ea.derive_order(alg)
            for _ in range(4):
                a, b, v = (rng.randrange(alg.size) for _ in range(3))
                broken = alg.with_entry(a, b, v)
                result = _cancellation(broken, order._replace(index=None))
                assert result == _cancellation_by_definition(broken, order), alg.name
                statuses.add(result.status)
        assert statuses == {PASS, FAIL}

    def test_cover_pass_matches_definition_on_bent_orders(self, reference_corpus):
        # the bent order's own index: a row whose image is still up[a] is
        # decided along the bent covers, and a failing cover sends the row
        # to the scan for its first witness
        along_covers = 0
        for alg in reference_corpus:
            for model, bent in bent_copies(alg):
                result = _cancellation(model, bent)
                assert result == _cancellation_by_definition(model, bent), alg.name
                along_covers += bent.index is not None and result.status == FAIL
        assert along_covers > 20

    def test_cover_pass_matches_definition_on_broken_tables(self, reference_corpus):
        # with the index of the real order, a row of a broken table that is
        # not injective or whose image is not up[a] must go to the scan
        rng = random.Random(5)
        statuses = set()
        for alg in reference_corpus:
            order = ea.derive_order(alg)
            for _ in range(4):
                a, b, v = (rng.randrange(alg.size) for _ in range(3))
                broken = alg.with_entry(a, b, v)
                result = _cancellation(broken, order)
                assert result == _cancellation_by_definition(broken, order), alg.name
                statuses.add(result.status)
        assert statuses == {PASS, FAIL}

    def test_fast_paths_decide_without_falling_back(self, reference_corpus, monkeypatch):
        # every row of a valid model passes along covers, and every least or
        # greatest element is a lookup in the order index
        expected = [(ea.profile(alg), run_all(alg)) for alg in reference_corpus]

        def fallback(*args):
            raise AssertionError("a fast path fell back to its scan")

        monkeypatch.setattr(theorems, "_cancellation_row", fallback)
        monkeypatch.setattr(core.OrderRelation, "least", fallback)
        monkeypatch.setattr(core.OrderRelation, "greatest", fallback)
        for alg, (prof, report) in zip(reference_corpus, expected):
            fresh = alg._replace()
            assert (ea.profile(fresh), run_all(fresh)) == (prof, report)

    def test_invalid_model_rejected(self):
        broken = ea.chain(3).with_entry(1, 2, None)  # 1 loses its supplement
        with pytest.raises(ea.InvalidModelError):
            run_all(broken)


class TestRunExhaustive:
    def test_order_4(self):
        summary = run_exhaustive(4)
        assert summary.models_per_size == {2: 1, 3: 1, 4: 3}
        assert not summary.failures
        assert summary.duplicate_forms == 0

    def test_repeated_model_counts_as_duplicate(self):
        m = ea.enumerate_up_to_iso(4)[0]
        summary = run_exhaustive(4, models=[m, m])
        assert summary.duplicate_forms == 1
        assert summary.models_per_size == {4: 2}

    def test_order_5_tallies(self):
        summary = run_exhaustive(5)
        assert summary.total_models == 9
        assert not summary.failures
        t = summary.tallies
        # every model passes cancellation; nothing is ever vacuous there
        assert t["cancellation"][PASS] == 9
        assert t["cancellation"][VACUOUS] == 0
        assert t["thm_3_2"][PASS] == 9
        # the implication checks split between pass and vacuous, never fail
        for cid in CHECK_IDS:
            assert t[cid][FAIL] == 0
            assert t[cid][PASS] + t[cid][VACUOUS] == 9

    def test_every_failing_model_gets_its_own_dump_file(self, tmp_path, monkeypatch):
        # unnamed models used to overwrite one another in theorem_failure_.efa
        monkeypatch.setattr(properties, "is_archimedean", lambda alg: False)
        models = [ea.chain(2)._replace(name=""), ea.chain(3)._replace(name=""),
                  ea.boolean_algebra(2)._replace(name="")]
        summary = run_exhaustive(4, models=models, dump_dir=str(tmp_path))
        assert len(summary.failures) == 4
        dumped = sorted(tmp_path.iterdir())
        assert [path.name for path in dumped] == [
            "theorem_failure_.efa", "theorem_failure__2.efa", "theorem_failure__3.efa"]
        assert [ea.load(path) for path in dumped] == models

    def test_text_table_renders(self):
        summary = run_exhaustive(4)
        text = summary.text_table()
        assert "failures: 0" in text
        assert "thm_3_7_finite" in text



CLASSIFY = properties.classify


def _negated(decider):
    def negated(alg):
        verdict = decider(alg)
        return verdict._replace(ok=not verdict.ok) if isinstance(verdict, Decision) else not verdict
    return negated


def _negated_field(field):
    # classify derives oml from omp and lattice, so a wrong omp or lattice
    # verdict comes with the oml derived from it
    def negated(alg):
        cls = CLASSIFY(alg)
        cls = cls._replace(**{field: not getattr(cls, field)})
        return cls if field == "oml" else cls._replace(oml=cls.omp and cls.lattice)
    return negated


# What each negated decider or classify field makes fail over the classes
# of orders 2-8: the run_all checks, and the profile invariants (the first
# one to fail on each model).  No check reads the orthoatomistic-by-sets
# flag, every finite model is orthocomplete, and lattice and oml are read
# by no statement whose other side can fail, so only invariants catch those.
MUTATION_AUDIT = {
    "is_archimedean": ({"prop_2_6", "prop_2_8"}, {"finite models are Archimedean"}),
    "is_atomic": ({"thm_3_2"},
                  {"atomistic implies atomic", "orthoatomistic implies atomic"}),
    "is_atomistic": ({"orthoatomistic_omp_implies_atomistic", "thm_3_2"},
                     {"an orthoatomistic orthomodular poset is atomistic",
                      "atomistic iff atomic and disjunctive"}),
    "is_disjunctive": ({"thm_3_2"}, {"atomistic iff atomic and disjunctive"}),
    "is_orthoatomistic": ({"thm_3_7_finite"},
                          {"finite models are orthoatomistic",
                           "in an orthoalgebra a sum of atoms repeats none"}),
    "is_orthoatomistic_sets": (set(), {"in an orthoalgebra a sum of atoms repeats none"}),
    "is_orthocomplete": (set(), {"finite models are orthocomplete"}),
    "is_weakly_orthocomplete": ({"prop_3_3"}, {"finite models are weakly orthocomplete"}),
    "orthoalgebra": ({"omp_implies_orthoalgebra", "orthoalgebra_iff_index1",
                      "self_orthogonal_zero"},
                     {"every orthomodular poset is an orthoalgebra",
                      "orthoalgebra iff every nonzero isotropic index is 1"}),
    "omp": ({"omp_iff_principal_iff_join", "omp_implies_orthoalgebra",
             "orthoatomistic_omp_implies_atomistic"},
            {"all elements principal iff ⊕ is the join of every orthogonal pair",
             "every orthomodular poset is an orthoalgebra"}),
    "omp_by_joins": ({"omp_iff_principal_iff_join"},
                     {"all elements principal iff ⊕ is the join of every orthogonal pair"}),
    "lattice": (set(), {"lattice by joins iff lattice by meets"}),
    "oml": (set(), {"oml = omp and lattice"}),
}


@pytest.fixture(scope="module")
def classes_up_to_8():
    return [m for n in range(2, 9) for m in ea.enumerate_up_to_iso(n)]


@pytest.mark.parametrize("target", MUTATION_AUDIT)
def test_mutation_audit(target, classes_up_to_8, monkeypatch):
    name, mutant = ((target, _negated(getattr(properties, target))) if target.startswith("is_")
                    else ("classify", _negated_field(target)))
    for module in (properties, theorems):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, mutant)
    checks, laws = set(), set()
    for alg in classes_up_to_8:
        checks.update(run_all(alg).failed)
        try:
            ea.profile(alg)
        except ea.InvariantViolation as err:
            laws.add(str(err).rsplit(" failed on ", 1)[0])
    assert (checks, laws) == MUTATION_AUDIT[target]
