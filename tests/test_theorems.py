"""Executable-law checks on individual models and over the enumeration."""

import random

import pytest

import effalg as ea
from effalg import theorems
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
                result = _cancellation(broken, order.up)
                assert result == _cancellation_by_definition(broken, order), alg.name
                statuses.add(result.status)
        assert statuses == {PASS, FAIL}

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

    def test_text_table_renders(self):
        summary = run_exhaustive(4)
        text = summary.text_table()
        assert "failures: 0" in text
        assert "thm_3_7_finite" in text
