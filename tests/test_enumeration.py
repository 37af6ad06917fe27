"""The enumeration engine against independent oracles, plus determinism."""

import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

import effalg as ea
from effalg import enumeration, models
from effalg.enumeration import _linearize

# Engine-derived class counts.  Orders 2 and 3 are forced analytically,
# order 4 is confirmed by the naive oracle below before being frozen, and
# orders up to 8 pass the orbit-stabiliser check below in every run (order
# 9 and the 172 classes of order 10 passed it once, too slow to repeat).
KNOWN_COUNTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14, 8: 40, 9: 60}


# ---------------------------------------------------------------------------
# A naive generator, independent of the engine: raw tables (or a plain
# backtracking scan with decided-cell filtering for order 4), a straight
# O(n^3) axiom filter, and isomorphism classes by full permutation scan.

_UNDECIDED = object()


def naive_valid(n, one, sym):
    s = lambda a, b: sym.get((a, b))
    for x in range(n):
        for y in range(n):
            p = s(x, y)
            if p is None:
                continue
            for z in range(n):
                q = s(p, z)
                if q is None:
                    continue
                t = s(y, z)
                if t is None or s(x, t) != q:
                    return False
    for a in range(n):
        if sum(1 for x in range(n) if s(a, x) == one) != 1:
            return False
    for a in range(1, n):
        if s(a, one) is not None:
            return False
    return True


def naive_key(n, sym):
    """Isomorphism key: minimum over all carrier permutations fixing 0."""
    best = None
    for perm in itertools.permutations(range(1, n)):
        pi = (0, *perm)
        inv = [0] * n
        for i, v in enumerate(pi):
            inv[v] = i
        lin = tuple(
            (-1 if sym.get((inv[a], inv[b])) is None else pi[sym[(inv[a], inv[b])]])
            for a in range(n) for b in range(a, n))
        if best is None or lin < best:
            best = lin
    return best


def model_as_sym(alg):
    sym = {}
    for a, b, c in alg.defined_pairs():
        sym[(a, b)] = c
        sym[(b, a)] = c
    return sym


def raw_enumerate_classes(n):
    """Every symmetric partial table, filtered, deduplicated.  Orders <= 3."""
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    keys = set()
    for one in range(1, n):
        for values in itertools.product([None, *range(n)], repeat=len(cells)):
            sym = {}
            for (a, b), v in zip(cells, values):
                if v is not None:
                    sym[(a, b)] = v
                    sym[(b, a)] = v
            if naive_valid(n, one, sym):
                keys.add(naive_key(n, sym))
    return keys


def backtracking_naive_classes(n):
    """Cell-by-cell scan with the same naive filter applied to decided cells.

    Prunes only on violations that every completion inherits (a decided A2
    instance, a doubled supplement, a defined a + 1), so it reaches exactly
    the tables the raw product reaches; the leaf still runs the full filter.
    """
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    keys = set()

    def partial_ok(one, sym, decided):
        for x in range(n):
            for y in range(n):
                if (x, y) not in decided:
                    continue
                p = sym.get((x, y))
                if p is None:
                    continue
                for z in range(n):
                    if (p, z) not in decided:
                        continue
                    q = sym.get((p, z))
                    if q is None:
                        continue
                    if (y, z) in decided:
                        t = sym.get((y, z))
                        if t is None:
                            return False
                        if (x, t) in decided and sym.get((x, t)) != q:
                            return False
        for a in range(n):
            sups = [x for x in range(n) if (a, x) in decided and sym.get((a, x)) == one]
            if len(sups) > 1:
                return False
        for a in range(1, n):
            if (a, one) in decided and sym.get((a, one)) is not None:
                return False
        return True

    def grow(one, i, sym, decided):
        if i == len(cells):
            if naive_valid(n, one, sym):
                keys.add(naive_key(n, sym))
            return
        a, b = cells[i]
        for v in [None, *range(n)]:
            if v is not None:
                sym[(a, b)] = v
                sym[(b, a)] = v
            decided.add((a, b))
            decided.add((b, a))
            if partial_ok(one, sym, decided):
                grow(one, i + 1, sym, decided)
            decided.discard((a, b))
            decided.discard((b, a))
            sym.pop((a, b), None)
            sym.pop((b, a), None)

    for one in range(1, n):
        grow(one, 0, {}, set())
    return keys


def brute_force_canonicalize(alg):
    """The reference labelling: every one of the (n-1)! relabelings fixing 0.

    Keeps the first least linearization in ``itertools.permutations`` order,
    so the relabeled model (labels included) is pinned, not only the form.
    """
    n = alg.size
    best = best_pi = None
    inv = [0] * n
    for perm in itertools.permutations(range(1, n)):
        pi = (0, *perm)
        for i, v in enumerate(pi):
            inv[v] = i
        lin = _linearize(alg, pi, inv, best)
        if lin is not None and (best is None or lin < best):
            best, best_pi = lin, pi
    return best, ea.permute(alg, best_pi)


def record_leaves(monkeypatch, groups=None):
    """A list that collects every leaf the stratum search hands the labeller.

    The automorphisms handed over with each leaf are passed through to the
    labeller, and collected in ``groups`` when it is given.
    """
    leaves = []
    labelled = enumeration.canonicalize

    def recorded(alg, *, automorphisms=()):
        leaves.append(alg)
        if groups is not None:
            groups.append(automorphisms)
        return labelled(alg, automorphisms=automorphisms)

    monkeypatch.setattr(enumeration, "canonicalize", recorded)
    return leaves


def leaves_with_groups(monkeypatch, orders):
    """Every leaf of the pruned search at the given orders, with the
    automorphisms the search hands the labeller along with it."""
    groups = []
    with monkeypatch.context() as m:
        leaves = record_leaves(m, groups)
        for n in orders:
            ea.enumerate_up_to_iso(n)
    return list(zip(leaves, groups, strict=True))


def unpruned_stratum(monkeypatch, n, pairs):
    """Every labelled leaf of the stratum of sigma_k, with its canonical form.

    Symmetry pruning is switched off, so each isomorphism class of the
    stratum appears once per labelled table on the canonical involution.
    """
    with monkeypatch.context() as m:
        m.setattr(enumeration, "_centralizer_perms", lambda n, sigma: [])
        leaves = record_leaves(m)
        found = enumeration._search_stratum(n, enumeration._canonical_sigma(n, pairs))
    return [(leaf, form) for leaf, (form, _) in zip(leaves, found, strict=True)]


def automorphism_count(alg, perms):
    """How many of perms map the table onto itself, by direct comparison."""
    t, n = alg.table, alg.size
    return sum(
        all(t[pi[a]][pi[b]] == (None if t[a][b] is None else pi[t[a][b]])
            for a in range(n) for b in range(n))
        for pi in perms)


def automorphisms_by_comparison(alg):
    """Every automorphism but the identity, by direct comparison over the
    permutations fixing 0 and the unit (every automorphism fixes both)."""
    n, one = alg.size, alg.one
    mid = [x for x in range(1, n) if x != one]
    found = []
    for img in itertools.permutations(mid):
        pi = list(range(n))
        for src, dst in zip(mid, img):
            pi[src] = dst
        if list(img) != mid and automorphism_count(alg, [pi]) == 1:
            found.append(tuple(pi))
    return found


def relabelled_with_group(alg, group, rng):
    """A random relabelling of alg and its group conjugated along it."""
    n = alg.size
    perm = list(range(1, n))
    rng.shuffle(perm)
    p = (0, *perm)
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    return ea.permute(alg, p), [tuple(p[g[inv[x]]] for x in range(n)) for g in group]


def count_calls(run, names):
    """How often the enumeration module's functions named in names are
    entered while run() executes (nested functions included)."""
    counts = dict.fromkeys(names, 0)
    path = enumeration.__file__

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path \
                and frame.f_code.co_name in counts:
            counts[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


def assert_labelled_as_brute_force(alg, automorphisms=()):
    form, canon = ea.canonicalize(alg, automorphisms=automorphisms)
    ref_form, ref = brute_force_canonicalize(alg)
    assert form == ref_form, alg.name
    assert (canon.one, canon.table, canon.labels, canon.name) == \
        (ref.one, ref.table, ref.labels, ref.name), alg.name


class TestForcedTinyOrders:
    def test_order2_unique(self):
        models = ea.enumerate_up_to_iso(2)
        assert len(models) == 1
        assert models[0].entries() == {(0, 0): 0, (0, 1): 1}

    def test_order3_unique(self):
        models = ea.enumerate_up_to_iso(3)
        assert len(models) == 1
        # the middle element is forced to be its own supplement
        assert models[0].sum_of(1, 1) == 2

    def test_raw_oracle_orders_2_and_3(self):
        assert len(raw_enumerate_classes(2)) == 1
        assert len(raw_enumerate_classes(3)) == 1

    def test_backtracking_oracle_matches_raw_at_3(self):
        assert backtracking_naive_classes(3) == raw_enumerate_classes(3)


class TestOrder4Oracle:
    def test_engine_matches_naive_oracle(self):
        engine = ea.enumerate_up_to_iso(4)
        assert len(engine) == 3
        oracle_keys = backtracking_naive_classes(4)
        assert len(oracle_keys) == 3
        assert {naive_key(4, model_as_sym(m)) for m in engine} == oracle_keys

    def test_order4_contains_the_three_expected_models(self):
        forms = {ea.canonical_form(m) for m in ea.enumerate_up_to_iso(4)}
        chain3 = ea.chain(3)
        boolean2 = ea.boolean_algebra(2)
        hsum = ea.horizontal_sum(ea.chain(2), ea.chain(2))
        assert forms == {ea.canonical_form(chain3), ea.canonical_form(boolean2),
                         ea.canonical_form(hsum)}


class TestEngineInvariants:
    def test_known_counts(self):
        got = ea.count(9)
        assert got == KNOWN_COUNTS

    def test_one_leaf_per_class(self, monkeypatch):
        leaves = record_leaves(monkeypatch)
        for n in range(2, 9):
            leaves.clear()
            classes = len(ea.enumerate_up_to_iso(n))
            assert len(leaves) == classes == KNOWN_COUNTS[n], n

    def test_enumerated_tables_match_golden(self):
        # sha256 over models.dumps of every class, in output order, frozen
        # once every order it covers had passed the orbit-stabiliser check
        golden = Path(__file__).parent / "golden" / "enumerated_tables_sha256.json"
        expected = json.loads(golden.read_text(encoding="utf-8"))
        got = {}
        for n in range(2, 10):
            digest = hashlib.sha256()
            for m in ea.enumerate_up_to_iso(n):
                digest.update(models.dumps(m).encode("utf-8"))
            got[str(n)] = digest.hexdigest()
        assert got == expected

    def test_leaf_groups_are_the_automorphism_groups(self, monkeypatch):
        # The permutations still active at a leaf must be all of Aut(leaf)
        # but the identity: the labeller relies on the whole group.
        pairs = leaves_with_groups(monkeypatch, range(2, 9))
        assert len(pairs) == sum(KNOWN_COUNTS[n] for n in range(2, 9))
        for leaf, group in pairs:
            handed = sorted(tuple(g) for g in group)
            assert handed == sorted(automorphisms_by_comparison(leaf)), leaf.entries()
        assert max(len(group) for _, group in pairs) == 719  # S_6 on six self-supplements

    def test_work_at_order_8(self):
        # The cancellation law prunes the stratum search and the leaf's
        # automorphisms prune the labeller: 13,079 and 3,491 calls without.
        # The search makes 2,798 place calls, and over 3,400 with either of
        # its two cancellation prunes alone.  The count is exact: a symmetry
        # check that prunes at other nodes changes it.
        counts = count_calls(lambda: ea.enumerate_up_to_iso(8), ("place", "_linearize"))
        assert counts["place"] == 2_798, counts
        assert counts["_linearize"] <= 1_240, counts

    def test_cell_maps_match_the_centralizer_listing(self):
        # The byte maps the search compares with are computed with byte
        # arithmetic; recompute each one from its permutation by cell lookup.
        for n in range(2, 10):
            for k in range((n - 2) // 2 + 1):
                sigma = enumeration._canonical_sigma(n, k)
                free = [(a, b) for a in range(1, n - 1) for b in range(a, n - 1)
                        if sigma[a] != b]
                index = {cell: i for i, cell in enumerate(free)}
                perms = enumeration._centralizer_perms(n, sigma)
                maps = enumeration._relabelings(n, sigma, free)
                assert len(maps) == len(perms), (n, k)
                for pi, (image, preimage, values) in zip(perms, maps):
                    inv = [pi.index(x) for x in range(n)]
                    cell = [index[tuple(sorted((pi[a], pi[b])))] for a, b in free]
                    back = [index[tuple(sorted((inv[a], inv[b])))] for a, b in free]
                    assert list(image) == cell, (n, k, pi)
                    assert list(preimage) == back + [len(free)], (n, k, pi)
                    assert list(values) == [*pi, n], (n, k, pi)

    def test_emitted_models_are_valid_and_iso_free(self):
        for n in range(2, 7):
            models = ea.enumerate_up_to_iso(n)
            forms = [ea.canonical_form(m) for m in models]
            assert all(ea.validate(m).valid for m in models)
            assert len(set(forms)) == len(forms)
            assert forms == sorted(forms)  # output sorted by canonical form

    def test_orbit_stabiliser_counts(self, monkeypatch):
        # Orbit-stabiliser on each unpruned stratum: the relabelings that
        # respect the pinned structure form the centralizer C(sigma_k), of
        # order k! 2^k (n-2-2k)!, and every automorphism lies in it.  So a
        # class found as |orbit| labelled leaves has |C| / |orbit|
        # automorphisms.  A labeller that splits or merges classes, or a
        # search that misses some labelled tables of a class, breaks this.
        for n in range(2, 9):
            classes: set[bytes] = set()
            for k in range((n - 2) // 2 + 1):
                sigma = enumeration._canonical_sigma(n, k)
                group = [tuple(range(n)), *enumeration._centralizer_perms(n, sigma)]
                order = math.factorial(k) * 2 ** k * math.factorial(n - 2 - 2 * k)
                assert len(group) == order, (n, k)
                orbits: dict[bytes, list] = {}
                for leaf, form in unpruned_stratum(monkeypatch, n, k):
                    orbits.setdefault(form, []).append(leaf)
                for orbit in orbits.values():
                    assert len(orbit) * automorphism_count(orbit[0], group) == order, (n, k)
                assert not classes & orbits.keys(), (n, k)  # strata are disjoint
                classes |= orbits.keys()
            pruned = [ea.canonical_form(m) for m in ea.enumerate_up_to_iso(n)]
            assert sorted(classes) == pruned, n

    def test_order8_regression(self):
        # engine-derived golden, frozen after the orbit-stabiliser check at <= 8
        models = ea.enumerate_up_to_iso(8)
        assert len(models) == 40
        assert all(ea.validate(m).valid for m in models)

    def test_every_constructor_model_is_enumerated(self):
        # completeness probed from the outside: independently built models
        # of every order up to the cap must appear among the classes
        c2, c3, c4 = ea.chain(2), ea.chain(3), ea.chain(4)
        b2 = ea.boolean_algebra(2)
        specimens = [ea.chain(n) for n in range(1, 8)]
        specimens += [b2, ea.boolean_algebra(3), ea.even_subset_omp(4)]
        specimens += [
            ea.horizontal_sum(c2, c2),
            ea.horizontal_sum(c2, c3),
            ea.horizontal_sum(b2, c2),
            ea.horizontal_sum(c2, c4),
            ea.horizontal_sum(c3, c3),
            ea.horizontal_sum(b2, c3),
            ea.horizontal_sum(b2, b2),
            ea.horizontal_sum(ea.horizontal_sum(c2, c2), c2),
            ea.horizontal_sum(ea.horizontal_sum(c2, c2), c4),
            ea.horizontal_sum(ea.even_subset_omp(4), ea.chain(1)),
        ]
        forms_by_size: dict[int, set[bytes]] = {}
        for alg in specimens:
            size = alg.size
            if size > ea.ENUMERATION_CAP:
                continue
            if size not in forms_by_size:
                forms_by_size[size] = {
                    ea.canonical_form(m) for m in ea.enumerate_up_to_iso(size)}
            assert ea.canonical_form(alg) in forms_by_size[size], alg.name

    def test_cap(self):
        with pytest.raises(ValueError):
            ea.enumerate_up_to_iso(11)
        with pytest.raises(ValueError):
            ea.enumerate_up_to_iso(1)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, rng):
        for alg in (ea.chain(3), ea.boolean_algebra(2), ea.chain(4),
                    ea.horizontal_sum(ea.chain(2), ea.chain(3))):
            base = ea.canonical_form(alg)
            for _ in range(10):
                perm = list(range(1, alg.size))
                rng.shuffle(perm)
                relabeled = ea.permute(alg, (0, *perm))
                assert ea.canonical_form(relabeled) == base

    def test_atom_swap_automorphism(self):
        b2 = ea.boolean_algebra(2)
        swapped = ea.permute(b2, (0, 2, 1, 3))
        assert ea.canonical_form(swapped) == ea.canonical_form(b2)

    def test_identity_relabeling(self, chain5):
        assert ea.canonical_form(ea.permute(chain5, tuple(range(6)))) == \
            ea.canonical_form(chain5)

    def test_distinct_classes_distinct_forms(self, hsum22):
        assert ea.canonical_form(ea.chain(3)) != ea.canonical_form(hsum22)
        assert ea.canonical_form(ea.chain(3)) != ea.canonical_form(ea.boolean_algebra(2))

    def test_canonicalize_fixes_zero_and_preserves_class(self):
        # every emitted model is its own canonical representative, so
        # callers may compare models directly
        for n in range(2, 7):
            for m in ea.enumerate_up_to_iso(n):
                form, canon = ea.canonicalize(m)
                assert (form, canon) == brute_force_canonicalize(m)
                assert canon.size == m.size
                assert ea.validate(canon).valid
                assert ea.canonical_form(canon) == form
                assert canon.table == m.table

    def test_branch_and_bound_matches_brute_force(self):
        # Labelled models with automorphisms pin which least relabeling wins.
        rng = random.Random(8)
        models = [m for n in range(2, 8) for m in ea.enumerate_up_to_iso(n)]
        named = [ea.boolean_algebra(3), ea.even_subset_omp(4),
                 ea.horizontal_sum(ea.boolean_algebra(2), ea.chain(3))]
        models += named
        for m in ea.enumerate_up_to_iso(8) + named:
            for _ in range(3):
                perm = list(range(1, m.size))
                rng.shuffle(perm)
                models.append(ea.permute(m, (0, *perm)))
        for m in models:
            assert_labelled_as_brute_force(m)

    def test_matches_brute_force_on_unpruned_leaves(self, monkeypatch):
        # every labelled leaf of every unpruned stratum, most of them far
        # from canonical
        leaves = [leaf for n in range(2, 8) for k in range((n - 2) // 2 + 1)
                  for leaf, _ in unpruned_stratum(monkeypatch, n, k)]
        for leaf in leaves:
            assert_labelled_as_brute_force(leaf)
        assert len(leaves) > 100

    def test_labelling_with_the_group_matches_brute_force(self, monkeypatch):
        # Each leaf of orders 2-7 with the group the search hands over, and
        # random relabellings of it with the group conjugated along.
        rng = random.Random(15)
        cases = leaves_with_groups(monkeypatch, range(2, 8))
        cases += [relabelled_with_group(leaf, group, rng)
                  for leaf, group in list(cases) for _ in range(2)]
        for alg in (ea.boolean_algebra(3), ea.even_subset_omp(4),
                    ea.horizontal_sum(ea.chain(2), ea.boolean_algebra(2))):
            group = automorphisms_by_comparison(alg)
            cases += [(alg, group)]
            cases += [relabelled_with_group(alg, group, rng) for _ in range(3)]
        for alg, group in cases:
            assert_labelled_as_brute_force(alg, group)
        assert sum(1 for _, group in cases if group) > 50

    def test_labelling_does_not_depend_on_the_order_of_the_group(self):
        # The relabelled model is the least labelling in the coset of the
        # one the search finds; scanning that coset must reach every
        # member, whatever the order of the list.  boolean:3 has the five
        # non-identity atom permutations, so each relabelling is tried with
        # all 120 orders.
        rng = random.Random(15)
        b3 = ea.boolean_algebra(3)
        group = automorphisms_by_comparison(b3)
        assert len(group) == 5
        for _ in range(10):
            alg, conjugated = relabelled_with_group(b3, group, rng)
            ref_form, ref = brute_force_canonicalize(alg)
            for order in itertools.permutations(conjugated):
                form, canon = ea.canonicalize(alg, automorphisms=order)
                assert (form, canon.table, canon.labels) == (ref_form, ref.table, ref.labels)

    def test_canonicalize_with_the_group_of_boolean4(self):
        # the 23 atom permutations; without them the labeller tries 20,161
        # relabelings, with them 841
        b4 = ea.boolean_algebra(4)
        group = [g for g in (tuple(sum(1 << p[i] for i in range(4) if x >> i & 1)
                                   for x in range(b4.size))
                             for p in itertools.permutations(range(4)))
                 if g != tuple(range(b4.size))]
        assert automorphism_count(b4, group) == 23
        calls = count_calls(lambda: ea.canonicalize(b4, automorphisms=group), ("_linearize",))
        assert calls["_linearize"] < 1_000
        form, canon = ea.canonicalize(b4)
        got_form, got = ea.canonicalize(b4, automorphisms=group)
        assert (got_form, got.table, got.labels) == (form, canon.table, canon.labels)

    def test_permute_refuses_non_permutations(self):
        for pi in ((), (1, 0, 2), (0, 1, 1)):
            with pytest.raises(ValueError, match="carrier permutation fixing 0"):
                ea.permute(ea.chain(2), pi)

    def test_carriers_beyond_one_byte_are_refused(self):
        # 255 codes an undefined cell, so the top of boolean:8 (index 255)
        # would collide with it; refuse before any relabeling is tried.
        b8 = ea.boolean_algebra(8)
        assert b8.size == 256
        with pytest.raises(ValueError, match="at most 255 elements"):
            _linearize(b8, range(256), range(256), None)
        for fn in (ea.canonicalize, ea.canonical_form):
            with pytest.raises(ValueError, match="at most 255 elements"):
                fn(b8)

    def test_largest_one_byte_carrier_linearizes(self):
        # the chain {0, ..., 254}, beyond the chain constructor's range
        c = ea.FiniteEffectAlgebra.from_entries(
            255, 254, {(a, b): a + b for a in range(255) for b in range(a, 255 - a)})
        form = _linearize(c, range(255), range(255), None)
        assert len(form) == 255 * 256 // 2
        assert form[254] == 254 and form[-1] == 255  # 0 + 254, then 254 + 254


class TestSearch:
    def test_positive_search_finds_a_chain(self):
        res = ea.search(ea.SearchConstraint(frozenset({"orthoatomistic"}),
                                            frozenset({"atomistic"}), 4))
        assert res.model is not None
        assert res.model.size == 3
        assert ea.canonical_form(res.model) == ea.canonical_form(ea.chain(2))

    def test_negative_search_atomic_not_orthoatomistic(self):
        res = ea.search(ea.SearchConstraint(frozenset({"atomic"}),
                                            frozenset({"orthoatomistic"}), 6))
        assert res.model is None
        assert "no model of order <= 6" in res.certificate

    def test_negative_search_omp_orthoatomistic_not_atomistic(self):
        res = ea.search(ea.SearchConstraint(frozenset({"omp", "orthoatomistic"}),
                                            frozenset({"atomistic"}), 6))
        assert res.model is None

    def test_unknown_property_name(self):
        with pytest.raises(ValueError, match="unknown property"):
            ea.SearchConstraint(frozenset({"modular"}), frozenset(), 4)

    def test_replace_checks_the_fields(self):
        constraint = ea.SearchConstraint(frozenset({"atomic"}), frozenset(), 4)
        with pytest.raises(ValueError, match="max_size must lie in 2..10"):
            constraint._replace(max_size=99)
        with pytest.raises(ValueError, match="unknown property"):
            constraint._replace(forbidden=frozenset({"modular"}))
        assert constraint._replace(max_size=6) == \
            ea.SearchConstraint(frozenset({"atomic"}), frozenset(), 6)
