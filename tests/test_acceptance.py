"""Acceptance criteria, one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance and time budget is pinned here; nothing defers
to later calibration.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import effalg as ea
from effalg.cli import main as cli_main
from effalg.properties import _ortho_scan
from effalg.symbolic import balanced, blocks, extended_chain, fincof
from effalg.theorems import run_exhaustive

from conftest import even_subset_index


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 1: the axiom suite.
#
# Each mutation of chain(4) (elements 0..4, unit 4; nonzero cells
# 1+1=2, 1+2=3, 1+3=4, 2+2=4) and boolean(2) (subset masks 0..3, unit 3;
# nonzero cell 1+2=3) is a single-entry edit, annotated with the axiom it
# breaks and a hand derivation.  Commutativity (A1) is structural: an
# edit writes both cells of the symmetric table, and the constructor
# refuses an asymmetric one, so seeded single-entry mutations can only
# surface A2, A3 or A4.

CHAIN4_MUTATIONS = [
    # (cell a, b, new value or None, expected axiom, reason)
    (1, 1, None, "A2", "(2+1)+1 = 4 exists but 1+1 does not"),
    (1, 2, None, "A2", "(1+1)+2 = 4 exists but 1+2 does not"),
    (1, 3, None, "A3", "1 loses its orthosupplement"),
    (2, 2, None, "A3", "2 loses its orthosupplement"),
    (0, 4, None, "A3", "0 and 4 lose their orthosupplements"),
    (1, 1, 3, "A2", "(2+1)+1 = 4 but 2+(1+1) = 2+3 is undefined"),
    (1, 1, 4, "A3", "supplement of 1 no longer unique: 1 and 3"),
    (1, 2, 4, "A3", "supplement of 1 no longer unique: 2 and 3"),
    (1, 3, 2, "A3", "1 has no x with 1+x = 4 any more"),
    (2, 2, 3, "A3", "2 has no x with 2+x = 4 any more"),
    (2, 2, 2, "A2", "(2+2)+1 = 3 exists but 2+(2+1) = 2+3 is undefined"),
    (0, 1, 2, "A2", "(0+1)+1 = 3 but 0+(1+1) = 0+2 = 2"),
    (1, 4, 0, "A4", "1+4 defined although 1 is not 0"),
    (2, 4, 1, "A4", "2+4 defined although 2 is not 0"),
    (3, 4, 2, "A4", "3+4 defined although 3 is not 0"),
    (2, 3, 4, "A3", "supplement of 2 no longer unique: 2 and 3"),
    (3, 3, 4, "A3", "supplement of 3 no longer unique: 1 and 3"),
    (2, 3, 0, "A2", "(2+3)+1 = 1 exists, 3+1 = 4, but 2+4 is undefined"),
    (3, 3, 0, "A2", "(3+3)+1 = 1 exists, 3+1 = 4, but 3+4 is undefined"),
    (0, 0, 1, "A2", "(4+0)+0 = 4 and 0+0 = 1, but 4+1 is undefined"),
]

BOOLEAN2_MUTATIONS = [
    (1, 2, None, "A3", "both atoms lose their orthosupplements"),
    (1, 2, 1, "A3", "no element sums with 1 to the unit"),
    (1, 2, 0, "A3", "no element sums with 1 to the unit"),
    (1, 1, 3, "A3", "supplement of 1 no longer unique: 1 and 2"),
    (1, 1, 1, "A2", "(1+1)+2 = 3 exists but 1+(1+2) = 1+3 is undefined"),
    (2, 2, 3, "A3", "supplement of 2 no longer unique: 1 and 2"),
    (1, 3, 0, "A4", "1+3 defined although 1 is not 0"),
    (3, 3, 3, "A4", "3+3 defined although 3 is not 0"),
    (0, 3, 0, "A3", "0 and 3 lose their orthosupplements"),
    (0, 1, 0, "A2", "(0+1)+2 = 0+2 = 2 but 0+(1+2) = 0+3 = 3"),
]


def test_criterion_1_axiom_suite():
    with criterion("1 axiom suite", 5.0):
        accepted = []
        accepted += [ea.boolean_algebra(k) for k in range(1, 7)]
        accepted += [ea.even_subset_omp(m) for m in (2, 4, 6, 8)]
        accepted += [ea.chain(n) for n in range(1, 65)]
        accepted += [
            ea.horizontal_sum(ea.chain(2), ea.chain(2)),
            ea.horizontal_sum(ea.chain(2), ea.chain(3)),
            ea.horizontal_sum(ea.boolean_algebra(2), ea.chain(4)),
            ea.horizontal_sum(ea.even_subset_omp(4), ea.boolean_algebra(2)),
            ea.horizontal_sum(ea.horizontal_sum(ea.chain(2), ea.chain(2)), ea.chain(2)),
            ea.horizontal_sum(ea.boolean_algebra(3), ea.even_subset_omp(4)),
        ]
        for alg in accepted:
            assert ea.validate(alg).valid, alg.name

        seeded = [(ea.chain(4), CHAIN4_MUTATIONS), (ea.boolean_algebra(2), BOOLEAN2_MUTATIONS)]
        total = 0
        for base, mutations in seeded:
            for a, b, value, expected_axiom, reason in mutations:
                mutant = base.with_entry(a, b, value)
                report = ea.validate(mutant)
                assert not report.valid, f"{base.name} {(a, b, value)}: {reason}"
                assert expected_axiom in report.axiom_ids(), \
                    f"{base.name} {(a, b, value)}: wanted {expected_axiom}, " \
                    f"got {sorted(report.axiom_ids())} ({reason})"
                total += 1
        assert total >= 20


def test_criterion_2_even_subset_reproduction(even6):
    with criterion("2 even-subset family", 1.0):
        assert even6.size == 32
        prof = ea.profile(even6)
        assert len(prof.atoms) == 15
        flags = prof.flags()
        assert flags["omp"] is True
        assert flags["orthocomplete"] is True
        assert flags["lattice"] is False
        assert flags["atomistic"] is True
        assert flags["orthoatomistic"] is True
        assert flags["disjunctive"] is True
        i_ab = even_subset_index(6, 0b000011)
        i_bc = even_subset_index(6, 0b000110)
        mubs = ea.minimal_upper_bounds(even6, [i_ab, i_bc])
        assert even6.one not in mubs
        assert {even6.label(i) for i in mubs} == {"{a,b,c,d}", "{a,b,c,e}", "{a,b,c,f}"}
        assert ea.supremum(even6, [i_ab, i_bc]) is None


def test_criterion_3_chain_separation(chain5):
    with criterion("3 chain separation", 1.0):
        flags = ea.profile(chain5).flags()
        assert flags["atomic"] is True
        assert flags["atomistic"] is False
        assert flags["disjunctive"] is False
        assert flags["orthoatomistic"] is True
        assert flags["lattice"] is True
        assert flags["omp"] is False
        # the atomistic biconditional holds with both sides false
        atomistic = ea.is_atomistic(chain5).ok
        both = ea.is_atomic(chain5) and ea.is_disjunctive(chain5).ok
        assert atomistic is False and both is False and atomistic == both
        report = ea.run_all(chain5)
        assert report.results["thm_3_2"].status == "pass"


def test_criterion_4_exhaustive_theorems():
    with criterion("4 exhaustive verification <= 6", 60.0):
        summary = run_exhaustive(6)
        assert summary.failures == []
        assert summary.duplicate_forms == 0
        assert summary.models_per_size[2] == 1
        assert summary.models_per_size[3] == 1
        assert summary.models_per_size[4] == 3


def test_criterion_5_searches():
    with criterion("5 constrained searches", 60.0):
        neg1 = ea.search(ea.SearchConstraint(
            frozenset({"atomic"}), frozenset({"orthoatomistic"}), 6))
        assert neg1.model is None
        neg2 = ea.search(ea.SearchConstraint(
            frozenset({"omp", "orthoatomistic"}), frozenset({"atomistic"}), 6))
        assert neg2.model is None
        pos = ea.search(ea.SearchConstraint(
            frozenset({"orthoatomistic"}), frozenset({"atomistic"}), 4))
        assert pos.model is not None
        assert ea.canonical_form(pos.model) == ea.canonical_form(ea.chain(2))


def test_criterion_6_symbolic_witnesses(capsys):
    with criterion("6 symbolic witnesses", 5.0):
        analysis = balanced.two_minimal_upper_bounds(depth=20)
        assert len(analysis.upper_bounds) == 3
        assert len(analysis.minimal_upper_bounds) == 2
        assert analysis.incomparable and analysis.supremum is None

        chain_report = extended_chain.not_orthoatomistic_report(5, 20)
        assert chain_report.claim_holds
        assert not chain_report.target_reachable
        assert chain_report.chain_strictly_decreasing

        # the same claims through the command-line surface
        assert cli_main(["witness", "ex39"]) == 0
        out = capsys.readouterr().out
        assert "upper bounds (3):" in out and "minimal upper bounds (2):" in out
        assert "incomparable: yes" in out and "supremum: none" in out
        assert cli_main(["witness", "ex38", "--depth", "20"]) == 0
        out = capsys.readouterr().out
        assert "5': unreachable" in out and "strictly decreasing" in out

        rng = random.Random(20250809)
        for _ in range(100):
            cand = fincof.random_upper_bound(rng) if rng.random() < 0.5 \
                else fincof.random_element(rng)
            ref = fincof.refute_upper_bound_candidate(cand)
            assert ref.verified
            if ref.kind == "smaller_upper_bound":
                assert fincof.lt(ref.witness, cand)
            else:
                assert not fincof.le(ref.witness, cand)
        for _ in range(100):
            cand = blocks.random_common_lower_bound(rng) if rng.random() < 0.5 \
                else blocks.random_element(rng)
            ref = blocks.refute_meet_candidate(cand)
            assert ref.verified
        for _ in range(100):
            cand = blocks.random_b1_upper_bound(rng) if rng.random() < 0.5 \
                else blocks.random_element(rng)
            ref = blocks.refute_singleton_sup_candidate(cand)
            assert ref.verified
            if ref.kind == "smaller_upper_bound":
                assert blocks.lt(ref.witness, cand)


def test_criterion_7_property_core_suite(enumerated_le5):
    with criterion("7 property suite over enumeration <= 5", 60.0):
        rng = random.Random(12345)
        for alg in enumerated_le5:
            order = ea.derive_order(alg)
            n = alg.size
            # cancellation law
            for a in range(n):
                partners = [(b, alg.sum_of(a, b)) for b in range(n) if alg.defined(a, b)]
                for b, ab in partners:
                    for c, ac in partners:
                        if order.le(ab, ac):
                            assert order.le(b, c)
            # join below the sum whenever both exist
            for a, b, c in alg.defined_pairs():
                s = ea.supremum(alg, (a, b))
                if s is not None:
                    assert order.le(s, c)
            # involution, antisymmetry, transitivity
            for a in range(n):
                assert order.supplement[order.supplement[a]] == a
                for b in range(n):
                    if order.le(a, b) and order.le(b, a):
                        assert a == b
                    if order.le(a, b):
                        for c in range(n):
                            if order.le(b, c):
                                assert order.le(a, c)
            # fold-order invariance, two random orders per multiset
            for _ in range(25):
                items = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
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
            # the two orthomodular-poset routes agree
            cls = ea.classify(alg)
            pairwise = all(ea.supremum(alg, (a, b)) == c for a, b, c in alg.defined_pairs())
            assert cls.omp == pairwise


def _enumerate_in_fresh_interpreter(out_dir, hash_seed: str):
    src = str(Path(ea.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "effalg", "enumerate", "--max-size", "5", "--out", str(out_dir)],
        env=env, capture_output=True, timeout=60)


def test_criterion_8_determinism(tmp_path):
    with criterion("8 enumeration determinism", 60.0):
        dir1, dir2 = tmp_path / "hashseed1", tmp_path / "hashseed2"
        run1 = _enumerate_in_fresh_interpreter(dir1, "1")
        run2 = _enumerate_in_fresh_interpreter(dir2, "2")
        assert run1.returncode == run2.returncode == 0, run1.stderr + run2.stderr
        assert run1.stdout == run2.stdout and run1.stdout
        names1 = sorted(p.name for p in dir1.glob("*.efa"))
        names2 = sorted(p.name for p in dir2.glob("*.efa"))
        assert names1 == names2 and names1
        for name in names1:
            assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
        # identical sorted canonical-form sets
        forms1 = sorted(ea.canonical_form(ea.load(dir1 / n)) for n in names1)
        forms2 = sorted(ea.canonical_form(ea.load(dir2 / n)) for n in names2)
        assert forms1 == forms2


def test_criterion_9_orthogonal_scan_on_chain48():
    with criterion("9 orthogonal systems on chain:48 and chain:64", 6.0):
        # the partitions of the totals 0..k
        for k, systems in ((48, 918220), (64, 12308139)):
            alg = ea.chain(k)
            prof = ea.profile(alg)
            assert prof.orthocomplete and prof.weakly_orthocomplete
            assert _ortho_scan(alg) == systems
