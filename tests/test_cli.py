"""End-to-end command-line behaviour, exit codes, and report formats."""

import argparse
import ast
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import effalg as ea
from effalg import cli, enumeration, properties, theorems
from effalg import report as report_mod
from effalg.cli import cover_pairs, main
from effalg.models import dumps

jsonschema = pytest.importorskip("jsonschema")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "c3.efa"
        ea.save(ea.chain(3), path)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and "valid effect algebra" in out

    def test_invalid_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.efa"
        path.write_text("elements: 3\none: 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1 and "A3" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.efa"
        path.write_text("elements: 3\none: 2\nsum: 1 2 3 4\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and "line 3" in err

    def test_oversized_carrier_exits_2_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "huge.efa"
        path.write_text("elements: 1000000\none: 1\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and "line 1:" in err and "Traceback" not in err

    @pytest.mark.parametrize("payload, line", [
        (b"elements: 3\n# unit\none: 7\n", 3),
        (b"elements: 3\none: 2\nlabel: 1 a\nlabel: 5 e\nsum: 1 1 2\n", 4),
        (b"elements: 3\none: 2\nsum: 1 1 \xff\n", 3),
    ], ids=["unit-index", "label-index", "not-utf8"])
    def test_rejection_names_its_line(self, tmp_path, capsys, payload, line):
        path = tmp_path / "bad.efa"
        path.write_bytes(payload)
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and f"line {line}:" in err and "Traceback" not in err

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.efa"
        path.write_bytes(b"\xef\xbb\xbfelements: 3\none: 2\nsum: 1 1 2\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and "valid effect algebra" in out

    @pytest.mark.parametrize("payload, line", [
        ("elements: 3\n\ufeffone: 2\nsum: 1 1 2\n", 2),
        ("\ufeff\ufeffelements: 3\none: 2\nsum: 1 1 2\n", 1),
    ], ids=["second-line", "doubled"])
    def test_stray_byte_order_mark_names_its_line(self, tmp_path, capsys, payload, line):
        path = tmp_path / "bad.efa"
        path.write_text(payload, encoding="utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and f"line {line}:" in err and "Traceback" not in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/x.efa")
        assert code == 2


class TestExampleAndProps:
    def test_chain_example_props_json(self, tmp_path, capsys):
        path = tmp_path / "c5.efa"
        code, _, _ = run(capsys, "example", "chain", "5", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "props", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["profile"]["atomistic"] is False
        assert doc["profile"]["orthoatomistic"] is True
        jsonschema.validate(doc, report_mod.schema())

    def test_even6_props(self, tmp_path, capsys):
        path = tmp_path / "e6.efa"
        run(capsys, "example", "even_subsets", "6", "-o", str(path))
        code, out, _ = run(capsys, "props", str(path), "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["profile"]["omp"] is True and doc["profile"]["lattice"] is False

    def test_horizontal_sum_example(self, tmp_path, capsys):
        path = tmp_path / "h.efa"
        code, out, _ = run(capsys, "example", "horizontal_sum", "chain:2", "chain:3",
                           "-o", str(path))
        assert code == 0
        assert ea.load(path).size == 5

    def test_unknown_example_name_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "example", "weird", "3", "-o", str(tmp_path / "x.efa"))
        assert code == 2 and "unknown recipe" in err

    def test_props_on_invalid_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.efa"
        path.write_text("elements: 3\none: 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "props", str(path), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False and doc["profile"] == {}
        jsonschema.validate(doc, report_mod.schema())

    @pytest.mark.parametrize("maker, file, code, golden", [
        (lambda: ea.boolean_algebra(3), "b3.efa", 0, "props_boolean3.txt"),
        (lambda: ea.chain(3).with_entry(1, 2, None), "chain3_no_1_2.efa", 1,
         "props_chain3_invalid.txt"),
    ], ids=["boolean3", "chain3-invalid"])
    def test_props_text_is_pinned(self, maker, file, code, golden, tmp_path, capsys,
                                  monkeypatch, request):
        # a relative file name, so that the model line reads the same anywhere
        monkeypatch.chdir(tmp_path)
        ea.save(maker(), file)
        got, out, _ = run(capsys, "props", file)
        assert got == code
        assert out.encode("utf-8") == (request.path.parent / "golden" / golden).read_bytes()

    def test_example_with_two_parameters_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.efa"
        code, _, err = run(capsys, "example", "chain", "5", "6", "-o", str(path))
        assert code == 2 and "takes one parameter" in err
        assert not path.exists()

    @pytest.mark.parametrize("operands, count", [("boolean:2", 1),
                                                  ("boolean:2,chain:3,chain:2", 3)])
    def test_horizontal_sum_recipe_needs_two_operands(self, operands, count, tmp_path, capsys):
        path = tmp_path / "x.efa"
        code, _, err = run(capsys, "example", f"horizontal_sum({operands})", "-o", str(path))
        assert code == 2
        assert err == f"error: horizontal_sum takes exactly two operand recipes, got {count}\n"
        assert not path.exists()

    def test_main_reads_sys_argv_by_default(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c3.efa"
        ea.save(ea.chain(3), path)
        monkeypatch.setattr(sys, "argv", ["effalg", "check", str(path)])
        assert main() == 0
        assert capsys.readouterr().out == \
            f"{path}: valid effect algebra with 4 elements (unit: 3)\n"

    def test_example_takes_a_full_recipe(self, tmp_path, capsys):
        path = tmp_path / "b3.efa"
        code, out, _ = run(capsys, "example", "boolean:3", "-o", str(path))
        assert code == 0 and "(boolean:3, 8 elements)" in out
        assert ea.load(path) == ea.boolean_algebra(3)

    def test_round_trip_for_all_builtins(self, tmp_path, capsys):
        # every family, every parameter in range (large power sets included)
        recipes = [("chain", str(n)) for n in range(1, 65)]
        recipes += [("boolean", str(k)) for k in range(1, 9)]
        recipes += [("even_subsets", str(m)) for m in (2, 4, 6, 8, 10)]
        recipes += [("horizontal_sum", "chain:2", "boolean:2"),
                    ("horizontal_sum", "even_subsets:4", "chain:3")]
        for i, parts in enumerate(recipes):
            path = tmp_path / f"m{i}.efa"
            code, _, _ = run(capsys, "example", *parts, "-o", str(path))
            assert code == 0
            code, _, _ = run(capsys, "check", str(path))
            assert code == 0


class TestOrthocompleteness:
    def test_long_chain_gets_a_full_report(self, tmp_path, capsys):
        # a hand-written 97-element chain, past chain:64, the deepest recipe
        path = tmp_path / "c96.efa"
        path.write_text("elements: 97\none: 96\n" + "".join(
            f"sum: {a} {b} {a + b}\n" for a in range(1, 97) for b in range(a, 97 - a)),
            encoding="utf-8")
        code, out, err = run(capsys, "props", str(path), "--json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, report_mod.schema())
        assert doc["profile"]["orthocomplete"] is True
        assert doc["profile"]["weakly_orthocomplete"] is True

    def test_order_not_from_the_table_exits_3(self, tmp_path, capsys, monkeypatch):
        # chain:3 with 2 cut from the up-set of 1, although 1 ⊕ 1 = 2
        alg = ea.chain(3)
        order = ea.derive_order(alg)
        # ``down`` is left as it was: not a partial order, so no index
        bent = order._replace(up=(order.up[0], order.up[1] & ~0b100, *order.up[2:]), index=None)
        monkeypatch.setattr(properties, "derive_order", lambda _alg: bent)
        path = tmp_path / "c3.efa"
        ea.save(alg, path)
        code, out, err = run(capsys, "props", str(path))
        assert code == 3 and out == ""
        assert "1 ⊕ 1 = 2" in err and "Traceback" not in err


class TestGoldenReports:
    @pytest.mark.parametrize("maker,golden", [
        (lambda: ea.chain(5), "chain5.json"),
        (lambda: ea.even_subset_omp(6), "even6.json"),
        (lambda: ea.boolean_algebra(3), "boolean3.json"),
    ])
    def test_golden(self, maker, golden, request):
        alg = maker()
        doc = report_mod.build_report(alg)
        golden_path = request.path.parent / "golden" / golden
        expected = json.loads(golden_path.read_text(encoding="utf-8"))
        assert doc == expected
        assert report_mod.dumps_report(doc).encode("utf-8") == golden_path.read_bytes()
        jsonschema.validate(doc, report_mod.schema())
        # stable top-level key order
        assert list(doc) == ["model", "valid", "violations", "profile", "witnesses", "theorems"]


def _json_dumps(doc) -> str:
    """The reference the report writer must reproduce byte for byte."""
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


class TestReportWriter:
    # every code point below 0x80, and three that json.dumps leaves raw
    TEXT = "".join(map(chr, range(0x80))) + "\u2032\u2026\u2028"

    def test_matches_json_dumps_on_the_reference_corpus(self, reference_corpus):
        for alg in reference_corpus:
            doc = report_mod.build_report(alg)
            assert report_mod.dumps_report(doc) == _json_dumps(doc), alg.name

    @pytest.mark.parametrize("name", ["ex34", "ex36-meet", "ex36-sup", "ex38", "ex39"])
    def test_matches_json_dumps_on_witness_payloads(self, name, capsys):
        code, out, _ = run(capsys, "witness", name, "--candidates", "10", "--json")
        assert code == 0 and out == _json_dumps(json.loads(out))

    def test_matches_json_dumps_on_generated_documents(self):
        rng = random.Random(20250809)
        text = self.TEXT

        def draw(depth):
            kind = rng.randrange(8 if depth < 4 else 4)
            if kind == 0:
                return rng.choice([None, True, False, 0, -1, 2**70, -(2**65)])
            if kind < 4:
                return "".join(rng.choices(text, k=rng.randrange(6)))
            if kind < 6:
                return {"".join(rng.choices(text, k=rng.randrange(4))): draw(depth + 1)
                        for _ in range(rng.randrange(4))}
            items = [draw(depth + 1) for _ in range(rng.randrange(4))]
            return items if kind == 6 else tuple(items)

        docs = [{"all": text, text: [text, (), {}, [], (text,)]},
                *({"doc": draw(0)} for _ in range(300))]
        for doc in docs:
            assert report_mod.dumps_report(doc) == _json_dumps(doc)

    def test_props_json_with_quotes_and_backslashes(self, tmp_path, capsys):
        # the model is named by its path, so the file name reaches the report
        path = tmp_path / 'q"uo\\te.efa'
        path.write_text('elements: 3\none: 2\nlabel: 1 a"b\\c\nlabel: 2 \\"\nsum: 1 1 2\n',
                        encoding="utf-8")
        code, out, _ = run(capsys, "props", str(path), "--json")
        assert code == 0
        assert out == _json_dumps(report_mod.build_report(ea.load(path)))
        assert '"a\\"b\\\\c"' in out and json.loads(out)["model"]["name"] == str(path)

    @pytest.mark.parametrize("doc", [{"x": 1.5}, {1: "one"}, {"x": [None, {2: 3}]}, {"x": {1}}],
                             ids=["float", "int-key", "nested-int-key", "set"])
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            report_mod.dumps_report(doc)


class TestHasse:
    def test_dot_output(self, tmp_path, capsys):
        src = tmp_path / "b2.efa"
        ea.save(ea.boolean_algebra(2), src)
        out_path = tmp_path / "b2.dot"
        code, _, _ = run(capsys, "hasse", str(src), "-o", str(out_path))
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("digraph hasse {")
        assert text.count("->") == 4  # the diamond
        assert "lightblue" in text    # atoms marked

    @pytest.mark.parametrize("recipe,golden", [
        ("boolean:3", "hasse_boolean3.dot"),
        ("even_subsets:6", "hasse_even6.dot"),
        ("chain:5", "hasse_chain5.dot"),
        ("horizontal_sum(boolean:2,chain:3)", "hasse_hsum_b2_c3.dot"),
    ])
    def test_golden(self, recipe, golden, tmp_path, capsys, request):
        src = tmp_path / "model.efa"
        ea.save(ea.parse_recipe(recipe), src)
        out_path = tmp_path / "model.dot"
        code, _, _ = run(capsys, "hasse", str(src), "-o", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (request.path.parent / "golden" / golden).read_bytes()

    def test_hasse_on_invalid_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.efa"
        path.write_text("elements: 3\none: 2\n", encoding="utf-8")
        code, _, err = run(capsys, "hasse", str(path), "-o", str(tmp_path / "x.dot"))
        assert code == 1 and "not a valid" in err

    def test_invalid_model_past_the_first_check_exits_1(self, tmp_path, capsys, monkeypatch):
        # the table passes cmd_hasse's own check, then atoms requires a valid model
        path = tmp_path / "bad.efa"
        path.write_text("elements: 3\none: 2\n", encoding="utf-8")
        monkeypatch.setattr(cli, "validate", lambda alg: ea.ValidationReport(True, ()))
        out_path = tmp_path / "x.dot"
        code, out, err = run(capsys, "hasse", str(path), "-o", str(out_path))
        assert code == 1 and out == ""
        assert err.startswith("error: not an effect algebra (") and err.count("\n") == 1
        assert "Traceback" not in err and not out_path.exists()

    def test_cover_relation_is_transitive_reduction(self, small_corpus):
        for alg in small_corpus:
            covers = set(cover_pairs(alg))
            order = ea.derive_order(alg)
            for a, b in covers:
                assert order.le(a, b) and a != b
            # no edge is implied by two others
            for a, b in covers:
                for c, d in covers:
                    if b == c:
                        assert (a, d) not in covers
            # covers generate the order: transitive closure equals <=
            reach = {a: {a} for a in range(alg.size)}
            changed = True
            while changed:
                changed = False
                for a, b in covers:
                    new = reach[b] - reach[a]
                    if new:
                        reach[a] |= new
                        changed = True
            for a in range(alg.size):
                assert reach[a] == set(order.above(a))

    def test_labels_are_escaped(self, tmp_path, capsys):
        labels = ['a"];evil[label="x', "back\\slash\\"]
        src = tmp_path / "hostile.efa"
        src.write_text(f"elements: 3\none: 2\nlabel: 1 {labels[0]}\nlabel: 2 {labels[1]}\n"
                       "sum: 1 1 2\n", encoding="utf-8")
        out_path = tmp_path / "hostile.dot"
        code, _, _ = run(capsys, "hasse", str(src), "-o", str(out_path))
        assert code == 0
        nodes = re.findall(r'^  (\w+) \[label="((?:[^"\\]|\\.)*)"[^\n]*\];$',
                           out_path.read_text(encoding="utf-8"), re.M)
        assert [name for name, _ in nodes] == ["n0", "n1", "n2"]
        assert [re.sub(r"\\(.)", r"\1", text) for _, text in nodes] == ["0", *labels]


class TestEnumerateCommand:
    def test_counts_and_files(self, tmp_path, capsys):
        out_dir = tmp_path / "models"
        code, out, _ = run(capsys, "enumerate", "--max-size", "4",
                           "--out", str(out_dir), "--verify-theorems")
        assert code == 0
        assert "order 2: 1 models" in out
        assert "order 4: 3 models" in out
        files = sorted(p.name for p in out_dir.glob("*.efa"))
        assert files == ["order2_000.efa", "order3_000.efa",
                         "order4_000.efa", "order4_001.efa", "order4_002.efa"]
        for p in out_dir.glob("*.efa"):
            assert ea.validate(ea.load(p)).valid

    def test_big_gate(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-size", "7")
        assert code == 2 and "--big" in err

    @pytest.mark.parametrize("big", [(), ("--big",)])
    def test_out_of_range_order_names_the_range(self, capsys, big):
        # --big cannot allow an order past the cap, so it is not offered
        code, out, err = run(capsys, "enumerate", "--max-size", "11", *big)
        assert code == 2 and "2..10" in err and "--big" not in err
        assert out == ""

    def test_big_allows_order_seven(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-size", "7", "--big")
        assert code == 0
        assert "order 7: 14 models" in out

    def test_verify_theorems_prints_summary_table(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-size", "4", "--verify-theorems")
        assert code == 0
        assert "failures: 0" in out
        assert "thm_3_7_finite" in out


    def test_verify_theorems_failure_is_reported_and_dumped(self, tmp_path, capsys,
                                                            monkeypatch):
        # Every model is orthocomplete, so a false Archimedean verdict fails
        # prop_2_8 everywhere and prop_2_6 on every orthoalgebra.
        monkeypatch.setattr(properties, "is_archimedean", lambda alg: False)
        code, out, err = run(capsys, "enumerate", "--max-size", "4", "--verify-theorems",
                             "--out", str(tmp_path))
        assert code == 3
        failed = err.splitlines()
        assert "theorem check failed on enum:2:0 (order 2): prop_2_8" in failed
        rows = {cells[0]: int(cells[-1]) for cells in map(str.split, out.splitlines())
                if cells and cells[0] in theorems.CHECK_IDS}
        assert rows == {cid: sum(line.endswith(f": {cid}") for line in failed)
                        for cid in theorems.CHECK_IDS}
        assert rows["prop_2_8"] == 5
        dumped = sorted(tmp_path.glob("theorem_failure_enum_*.efa"))
        assert len(dumped) == 5
        for path in dumped:
            size, i = map(int, path.stem.split("_")[-2:])
            assert ea.load(path) == ea.enumerate_up_to_iso(size)[i]


class TestSearchCommand:
    @pytest.mark.parametrize("repeated, joined", [
        (["--forbid", "lattice", "--forbid", "orthoalgebra"],
         ["--forbid", "lattice", "orthoalgebra"]),
        (["--require", "atomistic", "--require", "lattice", "--forbid", "orthoalgebra"],
         ["--require", "atomistic", "lattice", "--forbid", "orthoalgebra"]),
    ], ids=["forbid", "require"])
    def test_repeated_option_adds_to_the_list(self, repeated, joined, capsys):
        # each repetition adds its values; none replaces the ones before
        first = run(capsys, "search", *repeated, "--max-size", "6")
        second = run(capsys, "search", *joined, "--max-size", "6")
        assert first[:2] == second[:2]


    def test_positive(self, capsys):
        code, out, _ = run(capsys, "search", "--require", "orthoatomistic",
                           "--forbid", "atomistic", "--max-size", "4")
        assert code == 0
        assert "elements: 3" in out

    def test_negative_prints_none_exits_1(self, capsys):
        code, out, _ = run(capsys, "search", "--require", "atomic",
                           "--forbid", "orthoatomistic", "--max-size", "5")
        assert code == 1
        assert out.splitlines()[0] == "none"

    def test_unknown_property_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--require", "shiny", "--max-size", "4")
        assert code == 2 and "unknown property" in err


class TestWitnessCommand:
    def test_ex39_output(self, capsys):
        code, out, _ = run(capsys, "witness", "ex39")
        assert code == 0
        assert "upper bounds (3):" in out
        assert "minimal upper bounds (2):" in out
        assert "incomparable: yes" in out
        assert "supremum: none" in out

    def test_ex38_output(self, capsys):
        code, out, _ = run(capsys, "witness", "ex38", "--depth", "20")
        assert code == 0
        assert "5': unreachable" in out
        assert "strictly decreasing" in out

    def test_ex34_and_ex36(self, capsys):
        for name in ("ex34", "ex36-meet", "ex36-sup"):
            code, out, _ = run(capsys, "witness", name, "--candidates", "10")
            assert code == 0
            assert "refuted 10/10" in out
            assert "re-verified" in out

    @pytest.mark.parametrize("name", ["ex34", "ex36-meet", "ex36-sup", "ex38", "ex39"])
    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_refutation_output_is_pinned(self, name, fmt, capsys, request):
        # goldens recorded at the default seed with --candidates 10, which
        # ex38 and ex39 accept and ignore (they are finite reductions)
        golden = request.path.parent / "golden" / f"witness_{name}.{fmt}"
        flags = ["--json"] if fmt == "json" else []
        code, out, _ = run(capsys, "witness", name, "--candidates", "10", *flags)
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("args", [
        ("ex39", "--depth", "0"),
        ("ex39", "--depth", "-3"),
        ("ex34", "--candidates", "0"),
        ("ex34", "--candidates", "-4"),
    ])
    def test_options_that_certify_nothing_exit_2(self, args, capsys):
        code, out, err = run(capsys, "witness", *args)
        assert code == 2 and out == ""
        assert "at least 1" in err and "Traceback" not in err

    @staticmethod
    def _golden(request, name, fmt):
        return (request.path.parent / "golden" / f"witness_{name}.{fmt}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_unverified_defeater_exits_3(self, fmt, capsys, monkeypatch, request):
        # the third defeater fails its re-check: text keeps the claim line and
        # the two candidates before it, JSON an empty payload
        from effalg.symbolic import fincof

        real, calls = fincof.refute_upper_bound_candidate, []

        def refuter(cand):
            calls.append(cand)
            ref = real(cand)
            return dataclasses.replace(ref, verified=False) if len(calls) == 3 else ref

        monkeypatch.setattr(fincof, "refute_upper_bound_candidate", refuter)
        flags = ["--json"] if fmt == "json" else []
        code, out, err = run(capsys, "witness", "ex34", "--candidates", "10", *flags)
        assert code == 3 and len(calls) == 3
        golden = self._golden(request, "ex34", "txt").splitlines(keepends=True)
        assert err == f"UNVERIFIED defeater for candidate {calls[2].describe()}\n"
        assert golden[3].startswith(f"  candidate {calls[2].describe()}: ")
        if fmt == "txt":
            assert out == "".join(golden[:3])
        else:
            assert out == json.dumps(
                {"model": {"name": "ex34", "size": None}, "valid": True, "violations": [],
                 "profile": {}, "witnesses": {"ex34": {}}, "theorems": {}},
                ensure_ascii=False, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_failed_chain_claim_exits_3(self, fmt, capsys, monkeypatch, request):
        from effalg.symbolic import extended_chain

        real = extended_chain.not_orthoatomistic_report
        monkeypatch.setattr(extended_chain, "not_orthoatomistic_report", lambda target, depth:
                            dataclasses.replace(real(target, depth), no_natural_upper_bound=False))
        flags = ["--json"] if fmt == "json" else []
        code, out, err = run(capsys, "witness", "ex38", *flags)
        assert code == 3
        assert err == "internal theorem-check failure in the chain report\n"
        golden = self._golden(request, "ex38", fmt)
        if fmt == "txt":
            before = "  no natural is an upper bound: True\n"
            assert golden.count(before) == 1
            assert out == golden.replace(before, "  no natural is an upper bound: False\n")
        else:
            doc = json.loads(golden)
            doc["witnesses"]["ex38"]["no_natural_upper_bound"] = False
            assert out == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_analysis_with_a_supremum_exits_3(self, fmt, capsys, monkeypatch, request):
        from effalg.symbolic import balanced

        real = balanced.two_minimal_upper_bounds

        def with_supremum(depth):
            analysis = real(depth)
            return dataclasses.replace(analysis, supremum=analysis.minimal_upper_bounds[0],
                                       weakly_orthocomplete_violated=False)

        monkeypatch.setattr(balanced, "two_minimal_upper_bounds", with_supremum)
        flags = ["--json"] if fmt == "json" else []
        code, out, err = run(capsys, "witness", "ex39", *flags)
        assert code == 3
        assert err == "internal theorem-check failure in the upper-bound analysis\n"
        golden = self._golden(request, "ex39", fmt)
        if fmt == "txt":
            lines = golden.splitlines(keepends=True)
            assert lines[-2:] == [
                "supremum: none\n",
                "weak orthocompleteness fails: minimal upper bounds exist but the sum does not\n"]
            assert out == "".join(lines[:-2]) + "supremum: (X∪Y)∖{x0,y0}\n"
        else:
            doc = json.loads(golden)
            doc["witnesses"]["ex39"].update(supremum="(X∪Y)∖{x0,y0}",
                                            weakly_orthocomplete_violated=False)
            assert out == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"

    def test_unknown_witness_exits_2(self, capsys):
        code, _, _ = run(capsys, "witness", "ex99")
        assert code == 2

    def test_witness_json_channel(self, capsys):
        code, out, _ = run(capsys, "witness", "ex39", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, report_mod.schema())
        payload = doc["witnesses"]["ex39"]
        assert payload["supremum"] is None
        assert len(payload["upper_bounds"]) == 3
        code, out, _ = run(capsys, "witness", "ex34", "--candidates", "5", "--json")
        doc = json.loads(out)
        assert doc["witnesses"]["ex34"]["refuted"] == 5
        jsonschema.validate(doc, report_mod.schema())


class TestExitCodeThree:
    def test_props_maps_theorem_failure_to_exit_3(self, tmp_path, capsys, monkeypatch):
        # Theorem checks cannot fail on real valid models, so fake one
        # failure to prove the exit-code plumbing.
        import effalg.report as rmod
        from effalg.theorems import CheckResult, TheoremReport, CHECK_IDS as IDS

        def fake_check_verdicts(alg, verdicts):
            results = {cid: CheckResult("pass") for cid in IDS}
            results["thm_3_2"] = CheckResult("fail", "fabricated")
            return TheoremReport("fake", results)

        monkeypatch.setattr(rmod, "check_verdicts", fake_check_verdicts)
        path = tmp_path / "c3.efa"
        ea.save(ea.chain(3), path)
        code, _, err = run(capsys, "props", str(path), "--json")
        assert code == 3 and "thm_3_2" in err

    def test_enumerator_relabelling_defect_exits_3(self, capsys, monkeypatch):
        # without relabelling, an emitted model is not its own canonical form
        monkeypatch.setattr(enumeration, "permute", lambda alg, pi, **names: alg)
        code, _, err = run(capsys, "enumerate", "--max-size", "4")
        assert code == 3 and "canonical representative" in err

    def test_incomplete_symmetry_pruning_exits_3(self, capsys, monkeypatch):
        # without symmetry pruning, order 4 alone gives 4 leaves for 3 classes
        monkeypatch.setattr(enumeration, "_centralizer_perms", lambda n, sigma: [])
        code, _, err = run(capsys, "enumerate", "--max-size", "5")
        assert code == 3 and "share one canonical form" in err

    def test_invalid_leaf_exits_3(self, capsys, monkeypatch):
        # a leaf that fails validation is an engine defect, not a traceback
        bad = ea.ValidationReport(False, (ea.Violation("A2", (1, 1, 1), "fabricated"),))
        monkeypatch.setattr(enumeration, "validate", lambda alg: bad)
        code, _, err = run(capsys, "enumerate", "--max-size", "4")
        assert code == 3 and "engine defect" in err

    def test_invariant_violation_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        import effalg.cli as cli_mod

        def explode(path):
            raise ea.InvariantViolation("fabricated decider defect")

        monkeypatch.setattr(cli_mod.models, "load", explode)
        code, _, err = run(capsys, "check", "whatever.efa")
        assert code == 3 and "fabricated" in err


class TestSearchOutputIsLoadable:
    def test_found_model_round_trips(self, tmp_path, capsys):
        code, out, _ = run(capsys, "search", "--require", "orthoatomistic",
                           "--forbid", "atomistic", "--max-size", "4")
        payload = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#"))
        path = tmp_path / "found.efa"
        path.write_text(payload + "\n", encoding="utf-8")
        alg = ea.load(path)
        assert ea.validate(alg).valid
        assert dumps(alg).count("sum:") == 1


def _reference_parser() -> argparse.ArgumentParser:
    """The explicit parser the command table replaced, kept as the reference
    for help text, usage errors and namespaces."""
    parser = argparse.ArgumentParser(
        prog="effalg",
        description="finite effect algebras: validation, properties, enumeration, witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of an .efa file")
    p.add_argument("file")
    p.set_defaults(func=cli.cmd_check)

    p = sub.add_parser("props", help="decide every structural property of a model")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cli.cmd_props)

    p = sub.add_parser("hasse", help="export the order diagram (cover relation) as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cli.cmd_hasse)

    p = sub.add_parser("example", help="write a built-in model to an .efa file")
    p.add_argument("name", help="family name or full recipe, e.g. chain, boolean:3")
    p.add_argument("params", nargs="*", help="family parameters (e.g. 5, or operand recipes)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cli.cmd_example)

    p = sub.add_parser("enumerate", help="generate all models up to isomorphism")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out", help="directory for the generated .efa files")
    p.add_argument("--verify-theorems", action="store_true")
    p.add_argument("--big", action="store_true",
                   help=f"allow orders above {cli.ENUMERATE_PLAIN_LIMIT} "
                        f"(up to about 1 s of CPU time, at order {enumeration.ENUMERATION_CAP})")
    p.set_defaults(func=cli.cmd_enumerate)

    p = sub.add_parser("search", help="hunt for a model with a property profile")
    p.add_argument("--require", nargs="+", action="extend", default=[], metavar="PROP")
    p.add_argument("--forbid", nargs="+", action="extend", default=[], metavar="PROP")
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(func=cli.cmd_search)

    p = sub.add_parser("witness", help="run an infinite-family claim checker")
    p.add_argument("name", choices=cli.WITNESS_NAMES)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--seed", type=int, default=20250809)
    p.add_argument("--target", type=int, default=5, help="ex38: which primed element to certify")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cli.cmd_witness)

    return parser


def _argparse_vars(parser, argv, capsys):
    """vars() of argparse's namespace, or None where argparse exits."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None
    finally:
        capsys.readouterr()


class TestParsePlain:
    VALUES = ["m.efa", "3", "12", " 7", "1_0", "x", "ex39", "ex99", "lattice", "atomic",
              "boolean:3", "", "a b"]
    HOSTILE = ["--max", "--output=z", "--", "-h", "--help", "-3", "-ox", "-o", "--json",
               "--out", "--depth", "--bogus", "", "a b"]
    # forms argparse accepts that are left to it
    FALLBACK = [
        ["enumerate", "--max", "3"],
        ["search", "--req", "lattice", "--max-size", "4"],
        ["hasse", "m.efa", "--output=z"],
        ["hasse", "m.efa", "-oz"],
        ["props", "--", "m.efa"],
        ["witness", "ex39", "--depth", "-3"],
        ["check", ""],
        ["props", "a b", "--json"],
        ["example", "chain", "-o", "x", "5"],  # a split run; an error before Python 3.12.7
    ]
    # the benchmark's and the README's forms, which must not fall back
    PLAIN = [
        ["props", "m.efa", "--json"],
        ["check", "m.efa"],
        ["hasse", "m.efa", "-o", "m.dot"],
        ["example", "horizontal_sum", "chain:2", "boolean:2", "--output", "h.efa"],
        ["example", "-o", "c5.efa", "chain", "5"],
        ["enumerate", "--max-size", "8", "--big", "--verify-theorems"],
        ["enumerate", "--out", "d", "--max-size", "4"],
        ["search", "--require", "lattice", "--forbid", "orthocomplete", "--max-size", "8"],
        ["search", "--forbid", "a", "b", "--max-size", "6", "--forbid", "c"],
        ["witness", "ex34", "--candidates", "10", "--json"],
        ["witness", "--depth", "5", "ex38", "--target", "3", "--seed", "1"],
    ]

    def _generated(self, rng: random.Random, count: int):
        """Argvs built from the table's tokens, argument groups in random
        order (which splits positional runs), some with a hostile token."""
        for _ in range(count):
            name = rng.choice([*cli.COMMANDS, "bogus"])
            groups = []
            for flags, kw in cli.COMMANDS.get(name, (None, None, ()))[2]:
                if rng.random() < 0.2:
                    continue
                many = rng.choice((0, 1, 1, 2, 3)) if kw.get("nargs") else 1
                values = rng.choices(self.VALUES, k=many)
                if not flags[0].startswith("-"):
                    groups.append(values)
                elif kw.get("action") == "store_true":
                    groups.append([rng.choice(flags)])
                else:
                    groups.append([rng.choice(flags), *values])
            rng.shuffle(groups)
            argv = [name, *(token for group in groups for token in group)]
            if rng.random() < 0.3:
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(self.HOSTILE))
            yield argv

    def test_generated_argvs_agree_with_argparse(self, capsys):
        parser = cli._build_parser()
        plain = 0
        for argv in self._generated(random.Random(26), 6000):
            got = cli._parse_plain(argv)
            if got is not None:
                plain += 1
                assert vars(got) == _argparse_vars(parser, argv, capsys), argv
        assert plain > 1000

    @pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
    def test_plain_forms_are_parsed_without_argparse(self, argv, capsys):
        got = cli._parse_plain(argv)
        assert got is not None
        assert vars(got) == _argparse_vars(_reference_parser(), argv, capsys)

    @pytest.mark.parametrize("argv", FALLBACK, ids=" ".join)
    def test_other_forms_fall_back_to_argparse(self, argv, capsys):
        assert cli._parse_plain(argv) is None
        assert _argparse_vars(cli._build_parser(), argv, capsys) \
            == _argparse_vars(_reference_parser(), argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], *([name, "-h"] for name in cli.COMMANDS), ["props", "--help"],
        [], ["bogus"], ["check"], ["props"], ["props", "a", "b"], ["hasse", "m.efa"],
        ["hasse", "m.efa", "-o"], ["example", "-o", "x"], ["enumerate"],
        ["search", "--require", "lattice"], ["search", "--max-size", "3", "--require"],
        ["witness"], ["props", "m.efa", "--bogus"], ["check", "m.efa", "--json"],
        ["enumerate", "--max-size", "3", "-x"], ["enumerate", "--max"],
        ["witness", "ex39", "--dep", "x"], ["enumerate", "--max-size", "x"],
        ["witness", "ex39", "--depth", "1.5"], ["witness", "ex99"],
    ], ids=lambda argv: " ".join(argv) or "no-command")
    def test_help_and_usage_errors_match_the_reference(self, argv, capsys):
        try:
            _reference_parser().parse_args(argv)
        except SystemExit as exc:
            expected = (int(exc.code or 0), *capsys.readouterr())
        else:
            pytest.fail(f"the reference parser accepts {argv}")
        assert run(capsys, *argv) == expected


class TestImportContract:
    def test_cli_import_loads_the_traced_modules_and_not_symbolic(self):
        # The benchmark's tracer rebinds functions only in the modules that
        # `import effalg.cli` loads; the symbolic families serve `witness`
        # alone and stay unloaded until it runs.
        tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        traced = next(
            ast.literal_eval(node.value)
            for node in ast.parse(tracer.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
        src = str(Path(ea.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, effalg.cli; print(*sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "effalg.symbolic" not in loaded
        assert {f"effalg.{short}" for short in traced} <= loaded
        # models, orders and records are built without dataclasses, whose
        # import pulls in inspect, ast and dis
        assert not {"dataclasses", "inspect"} & loaded
        # argparse (with gettext) loads only for help and usage errors, and
        # json only when report.schema() reads the schema
        assert not {"argparse", "gettext", "json"} & loaded

    def test_props_json_loads_neither_argparse_nor_json(self, tmp_path):
        path = tmp_path / "b3.efa"
        ea.save(ea.boolean_algebra(3), path)
        env = dict(os.environ, PYTHONPATH=str(Path(ea.__file__).resolve().parents[1]))
        probe = ("import atexit, sys; from effalg.cli import main; "
                 "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr)); "
                 "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", probe, "props", str(path), "--json"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _json_dumps(report_mod.build_report(ea.load(path)))
        loaded = set(proc.stderr.split())
        assert "effalg.report" in loaded
        assert not {"argparse", "gettext", "json"} & loaded

    def test_help_still_goes_through_argparse(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: effalg")


def _child_env() -> dict:
    """The caller's environment without any ``PYTHON*`` variable (so stdout is
    block-buffered and utf-8 whatever the caller set), importing from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(ea.__file__).resolve().parents[1])
    return env


def _child(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_child_env(), stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


class TestExitContract:
    """``console_main`` runs the exit handlers, flushes stdout and stderr and
    ends with ``os._exit``; each test runs it in a child, since calling it here
    would end the test session."""

    @pytest.fixture
    def models_dir(self, tmp_path):
        ea.save(ea.boolean_algebra(3), tmp_path / "b3.efa")
        (tmp_path / "bad.efa").write_text("elements: 3\none: 2\n", encoding="utf-8")
        return tmp_path

    CASES = [
        (("props", "{dir}/b3.efa"), 0),
        (("props", "{dir}/b3.efa", "--json"), 0),
        (("props", "{dir}/bad.efa"), 1),
        (("search", "--require", "lattice", "--forbid", "orthocomplete", "--max-size", "5"), 1),
        (("check", "{dir}/missing.efa"), 2),
        (("bogus",), 2),
    ]

    @pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_same_bytes_and_code_as_main_in_process(self, argv, code, models_dir, capsys):
        argv = [a.format(dir=models_dir) for a in argv]
        expected = run(capsys, *argv)
        assert expected[0] == code
        proc = _child("-m", "effalg", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (code, expected[1].encode(), expected[2].encode())

    def test_invariant_violation_exits_3(self, models_dir, capsys, monkeypatch):
        # boolean:3 is atomistic, so a false atomic verdict breaks a profile law
        monkeypatch.setattr(properties, "is_atomic", lambda alg: False)
        expected = run(capsys, "props", str(models_dir / "b3.efa"))
        assert expected[0] == 3 and "internal theorem-check failure" in expected[2]
        probe = ("from effalg import properties; from effalg.cli import console_main; "
                 "properties.is_atomic = lambda alg: False; console_main()")
        proc = _child("-c", probe, "props", str(models_dir / "b3.efa"))
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (3, expected[1].encode(), expected[2].encode())

    def test_exit_handlers_run_after_the_output(self, models_dir, capsys):
        path = str(models_dir / "b3.efa")
        _, out, _ = run(capsys, "props", path, "--json")
        probe = ("import atexit; from effalg.cli import console_main; "
                 "atexit.register(print, 'exit handler ran'); console_main()")
        proc = _child("-c", probe, "props", path, "--json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (out + "exit handler ran\n").encode()

    @pytest.mark.parametrize("flags, setup, normal_exit", [
        ((), "", False),
        ((), "sys.settrace(lambda *a: None)", True),
        ((), "sys.setprofile(lambda *a: None)", True),
        ((), "import types; sys.monitoring = types.SimpleNamespace("
             "get_tool=lambda i: 'cProfile' if i == 2 else None)", True),
        (("-i",), "", True),
    ], ids=["plain", "trace", "profile", "monitoring", "inspect"])
    def test_tracers_profilers_and_inspect_exit_through_sys_exit(self, flags, setup,
                                                                  normal_exit, models_dir):
        probe = (f"import sys\n{setup}\nfrom effalg.cli import console_main\n"
                 "try:\n    console_main()\nexcept SystemExit as exc:\n"
                 "    print('sys.exit', exc.code)\n")
        proc = _child(*flags, "-c", probe, "check", str(models_dir / "b3.efa"))
        lines = proc.stdout.decode().splitlines()
        assert "valid effect algebra" in lines[0]
        assert ("sys.exit 0" in lines) == normal_exit
        if not normal_exit:
            assert proc.returncode == 0 and len(lines) == 1

    def test_cprofile_still_prints_its_stats(self, models_dir):
        proc = _child("-m", "cProfile", "-m", "effalg", "props", str(models_dir / "b3.efa"))
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.decode()
        assert out.startswith("model: ") and "function calls" in out

    # recorded from the interpreter's own exit, before console_main skipped it
    @pytest.mark.parametrize("maker, code, err", [
        # the report (5,867 bytes) is still buffered when stdout is flushed at exit
        (lambda: ea.boolean_algebra(6), 120,
         b"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
         b"encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n"),
        # the report (9,912 bytes) overflows the buffer, so print fails in the command
        (lambda: ea.even_subset_omp(8), 2, b"error: [Errno 32] Broken pipe\n"),
    ], ids=["boolean:6", "even_subsets:8"])
    def test_closed_stdout_keeps_the_interpreters_answer(self, maker, code, err, tmp_path):
        path = tmp_path / "m.efa"
        ea.save(maker(), path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _child("-m", "effalg", "props", str(path), "--json", stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, err)
