"""Derived facts are memoised on the model object they describe.

A fact belongs to one object: an equal table under other labels or another
name gets its own.  An analysed model still behaves like a plain value, one
report derives each fact once, and one enumeration labels each class once,
trying few relabelings per class.
"""

import pickle
import re
import sys
from collections import Counter

import pytest

import effalg as ea
from effalg import core, enumeration, properties
from effalg.cli import main
from effalg.models import dumps
from effalg.report import build_report
from effalg.theorems import run_all

MEMOISED_FACTS = {
    core: ("partners", "validate", "derive_order"),
    properties: ("classify", "atoms", "_atom_reach", "_ortho_scan", "isotropic_indices",
                 "pair_joins"),
}


def _same_table(alg, prefix, name):
    labels = tuple(f"{prefix}{i}" for i in range(alg.size))
    return ea.FiniteEffectAlgebra(alg.size, alg.one, alg.table, labels, name)


class TestFactsBelongToTheirObject:
    def test_violations_use_their_own_labels(self):
        broken = ea.chain(4).with_entry(2, 2, None)
        first = _same_table(broken, "P", "first")
        second = _same_table(broken, "Q", "second")
        assert first == second
        assert ea.validate(first).violations[1].message == \
            "P2 has no orthosupplement (no x with P2⊕x = P4)"

        violations = ea.validate(second).violations
        assert [v.message for v in violations] == [
            "(Q2⊕Q1)⊕Q1 is defined but Q2⊕(Q1⊕Q1) is not",
            "Q2 has no orthosupplement (no x with Q2⊕x = Q4)",
        ]
        doc = build_report(second)
        assert doc["model"]["name"] == "second"
        for entry in doc["violations"]:
            assert "P" not in entry["message"] and "P" not in "".join(entry["witness"])
        with pytest.raises(ea.InvalidModelError) as err:
            ea.derive_order(second)
        assert "Q2" in str(err.value) and "P" not in str(err.value)

    def test_invariant_violations_name_their_own_model(self, monkeypatch):
        # A fabricated join route makes the two OMP routes disagree.
        monkeypatch.setattr(properties, "pair_joins",
                            lambda alg: (None,) * len(list(alg.defined_pairs())))
        for name in ("first", "second"):
            model = _same_table(ea.boolean_algebra(2), name[0].upper(), name)
            with pytest.raises(ea.InvariantViolation) as err:
                ea.profile(model)
            assert str(err.value).endswith(f"failed on {name}")


class TestAnalysedModelIsAPlainValue:
    @pytest.mark.parametrize("recipe", ["even_subsets:6", "chain:5"])
    def test_pickle_compare_hash_replace(self, recipe):
        model = ea.parse_recipe(recipe)
        prof = ea.profile(model)
        run_all(model)

        copy = pickle.loads(pickle.dumps(model))
        fresh = ea.parse_recipe(recipe)
        assert copy == model == fresh
        assert hash(copy) == hash(model) == hash(fresh)
        assert (copy.labels, copy.name) == (model.labels, model.name)
        assert dumps(copy) == dumps(fresh)
        assert ea.profile(copy) == prof
        assert build_report(copy) == build_report(fresh)

        renamed = model._replace(name="renamed")
        assert renamed == model and hash(renamed) == hash(model)
        assert run_all(renamed).model_name == "renamed"
        assert build_report(renamed)["model"]["name"] == "renamed"

    def test_invalid_model_pickles_after_validation(self):
        broken = ea.chain(3).with_entry(1, 2, None)
        report = ea.validate(broken)
        copy = pickle.loads(pickle.dumps(broken))
        assert copy == broken and ea.validate(copy) == report


def _calls_during(fn, *args) -> Counter:
    counts: Counter = Counter()

    def tally(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(tally)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("recipe", ["even_subsets:6", "chain:5"])
def test_one_report_derives_each_fact_once(recipe):
    model = ea.parse_recipe(recipe)
    counts = _calls_during(build_report, model)
    assert counts[properties.isotropic_index.__code__] == model.size
    assert counts[properties.is_principal.__code__] <= model.size
    for module, names in MEMOISED_FACTS.items():
        for name in names:
            body = getattr(module, name).__wrapped__.__code__
            assert counts[body] == 1, name


DECIDERS = ("is_atomistic", "is_orthoatomistic", "is_orthoatomistic_sets", "is_disjunctive")


def _memoised_bodies() -> dict:
    """The body of every ``per_model`` fact of the loaded package, by name."""
    memoised = core.partners.__code__  # the one wrapper code every fact shares
    return {fn.__wrapped__.__code__: f"{module.__name__}.{name}"
            for key, module in list(sys.modules.items())
            if key == "effalg" or key.startswith("effalg.")
            for name, fn in vars(module).items() if getattr(fn, "__code__", None) is memoised}


@pytest.mark.parametrize("recipe", ["even_subsets:6", "chain:5",
                                    "horizontal_sum(boolean:2,chain:3)"])
def test_each_file_command_derives_each_fact_at_most_once(recipe, tmp_path, capsys):
    # props gathers the verdicts once, for profile and the theorem checks,
    # and the loader hands its rows to the constructor without from_entries
    path = str(tmp_path / "model.efa")
    ea.save(ea.parse_recipe(recipe), path)
    once = {properties._verdicts.__code__: "_verdicts", **_memoised_bodies(),
            **{getattr(properties, name).__code__: name for name in DECIDERS}}
    assert len(once) > 1 + len(DECIDERS)
    from_entries = core.FiniteEffectAlgebra.from_entries.__code__
    for argv in (["check", path], ["props", path], ["props", path, "--json"],
                 ["hasse", path, "-o", str(tmp_path / "model.dot")]):
        codes = []
        counts = _calls_during(lambda: codes.append(main(argv)))
        capsys.readouterr()
        assert codes == [0], argv
        assert counts[from_entries] == 0, argv
        assert counts[properties._verdicts.__code__] == (argv[0] == "props"), argv
        repeated = {name: counts[code] for code, name in once.items() if counts[code] > 1}
        assert not repeated, (argv, repeated)


class _CountedRow(tuple):
    """A table row that tallies how often it is walked or searched."""

    tally: Counter = Counter()

    def __iter__(self):
        self.tally["iter", id(self)] += 1
        return super().__iter__()

    def count(self, value):
        self.tally["count"] += 1
        return super().count(value)

    def index(self, *args):
        self.tally["index"] += 1
        return super().index(*args)


@pytest.mark.parametrize("recipe", ["even_subsets:6", "chain:5", "boolean:4",
                                    "horizontal_sum(boolean:2,chain:3)"])
def test_one_report_walks_each_row_once(recipe):
    # every reader of the defined cells reads the memoised partner lists,
    # which are built by one walk of each row; other reads are lookups
    model = ea.parse_recipe(recipe)
    rows = tuple(map(_CountedRow, model.table))
    counted = ea.FiniteEffectAlgebra(model.size, model.one, rows, model.labels, model.name)
    tally = _CountedRow.tally
    tally.clear()
    build_report(counted)
    assert tally == Counter({("iter", id(row)): 1 for row in rows})


@pytest.mark.parametrize("recipe", ["even_subsets:6", "chain:5", "boolean:4",
                                    "horizontal_sum(boolean:2,chain:3)"])
def test_props_visits_the_order_pairs_at_most_twice(recipe, tmp_path, capsys):
    # The order code of core reads the elements of a mask through _bits, so
    # an element that a _bits generator yields to core is one visit of a
    # pair (a, b) with a <= b, or of one element of a set.
    path = tmp_path / "model.efa"
    ea.save(ea.parse_recipe(recipe), path)
    bits = core._bits.__code__
    visits = 0

    def tally(frame, event, arg):
        nonlocal visits
        if (event == "return" and arg is not None and frame.f_code is bits
                and frame.f_back.f_code.co_filename == core.__file__):
            visits += 1

    sys.setprofile(tally)
    try:
        code = main(["props", str(path), "--json"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    pairs = sum(mask.bit_count() for mask in ea.derive_order(ea.load(path)).up)
    assert visits <= 2 * pairs, (visits, pairs)


def test_classify_reads_joins_and_meets_from_the_order():
    # the public bound functions re-check their input on every call
    counts = _calls_during(properties.classify, ea.chain(32))
    assert counts[properties.classify.__wrapped__.__code__] == 1
    assert counts[core.supremum.__code__] == 0
    assert counts[core.infimum.__code__] == 0


def test_enumerate_canonicalizes_each_class_once(capsys):
    counts = _calls_during(main, ["enumerate", "--max-size", "6", "--verify-theorems"])
    out = capsys.readouterr().out
    classes = sum(int(k) for k in re.findall(r"^order \d+: (\d+) models$", out, re.M))
    assert classes == 19
    assert counts[enumeration.canonicalize.__code__] == classes


def test_enumerate_builds_each_class_twice_and_validates_it_once(capsys):
    # A class is built as its leaf and once more as the relabelled model
    # with its final name; only that model is validated, and the theorem
    # checks read its memoised report.
    counts = _calls_during(main, ["enumerate", "--max-size", "6", "--verify-theorems"])
    out = capsys.readouterr().out
    classes = sum(int(k) for k in re.findall(r"^order \d+: (\d+) models$", out, re.M))
    assert classes == 19
    assert counts[core.validate.__wrapped__.__code__] == classes
    assert counts[core.FiniteEffectAlgebra.__init__.__code__] == 2 * classes


def test_labelling_tries_few_relabelings_per_class():
    # Each order-8 class is labelled once, trying at most 200 relabelings
    # (brute force tries all 7! = 5,040), and checked once under the identity.
    models = []
    counts = _calls_during(lambda: models.extend(enumeration.enumerate_up_to_iso(8)))
    assert len(models) == 40
    assert counts[enumeration._linearize.__code__] <= (200 + 1) * len(models)
