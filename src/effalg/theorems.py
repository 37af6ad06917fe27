"""Executable statements: every structural law runs as a check on a model.

Each check evaluates one proved statement literally on one finite model.
Implications whose hypothesis fails on the model report ``vacuous`` so the
coverage of the corpus stays visible; biconditionals evaluate both sides
independently and compare.  A ``fail`` on a valid model is never a
mathematical discovery (the statements are theorems); it is a defect in
the deciders or the enumerator, which is why the CLI maps it to its own
exit code.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple

from .core import FiniteEffectAlgebra, OrderRelation, _bits, derive_order, partners
from .enumeration import enumerate_up_to_iso
from .properties import PropertyProfile, _verdicts, classify, isotropic_indices, pair_joins

PASS, FAIL, VACUOUS = "pass", "fail", "vacuous"

CHECK_IDS = (
    "cancellation",
    "sup_le_oplus",
    "omp_iff_principal_iff_join",
    "orthoalgebra_iff_index1",
    "omp_implies_orthoalgebra",
    "prop_2_6",
    "prop_2_8",
    "prop_3_3",
    "thm_3_2",
    "thm_3_7_finite",
    "orthoatomistic_omp_implies_atomistic",
    "self_orthogonal_zero",
)


class CheckResult(NamedTuple):
    status: str  # pass | fail | vacuous
    witness: Any = None


class TheoremReport(NamedTuple):
    model_name: str
    results: Mapping[str, CheckResult]

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(cid for cid, r in self.results.items() if r.status == FAIL)

    @property
    def all_pass(self) -> bool:
        return not self.failed


def _implication(hypothesis: bool, conclusion: bool, witness: Any = None) -> CheckResult:
    if not hypothesis:
        return CheckResult(VACUOUS)
    return CheckResult(PASS) if conclusion else CheckResult(FAIL, witness)


def _biconditional(lhs: bool, rhs: bool, witness: Any) -> CheckResult:
    return CheckResult(PASS) if lhs == rhs else CheckResult(FAIL, witness)


def _cancellation(alg: FiniteEffectAlgebra, order: OrderRelation) -> CheckResult:
    """a⊕b <= a⊕c implies b <= c, over all a, b, c with both sums defined.

    Row by row.  When ``order`` is indexed and the map c -> a⊕c is
    injective with image ``up[a]``, any a⊕b <= a⊕c is joined by covers
    inside ``up[a]``, each with a preimage, so the law holds for a iff the
    preimages of every cover s ⋖ t are ordered.  The preimages are read
    from ``order.ominus`` and each is checked against the row.  Any other
    row, and a row whose covers fail, goes to ``_cancellation_row``.
    """
    up, ominus = order.up, order.ominus
    covers = None if order.index is None else order.index.covers
    for a, row in enumerate(partners(alg)):
        if covers is not None:
            image, pre, cells = up[a], ominus[a], alg.table[a]
            # len(pre) distinct cells of the row hold the len(pre) elements
            # of up[a], and no other cell is defined
            if (len(row) == len(pre) == image.bit_count()
                    and all(image >> s & 1 and cells[c] == s for s, c in pre.items())
                    and _ordered_along_covers(pre, up, covers)):
                continue
        witness = _cancellation_row(alg, a, row, up)
        if witness is not None:
            return CheckResult(FAIL, witness)
    return CheckResult(PASS)


def _ordered_along_covers(pre: dict[int, int], up: tuple[int, ...],
                          covers: tuple[tuple[int, ...], ...]) -> bool:
    """pre[s] <= pre[t] for every s in ``pre`` and every cover t of s."""
    for s, c in pre.items():
        above = up[c]
        for t in covers[s]:
            if not above >> pre[t] & 1:
                return False
    return True


def _cancellation_row(alg: FiniteEffectAlgebra, a: int, row: tuple[tuple[int, int], ...],
                      up: tuple[int, ...]) -> dict[str, str] | None:
    """The first failing (b, c) of row a, read from ``partners(alg)[a]`` and ``up``.

    ``with_sum[s]`` is the mask of the c with a⊕c = s: the map c -> a⊕c is
    not assumed injective, so this also runs on a table that breaks the
    law.  The first failing c for (a, b) is the lowest partner with a⊕c
    above a⊕b and c not above b.
    """
    with_sum: dict[int, int] = {}
    for c, ac in row:
        with_sum[ac] = with_sum.get(ac, 0) | 1 << c
    sums = sum(1 << s for s in with_sum)
    for b, ab in row:
        failing = 0
        for s in _bits(up[ab] & sums):
            failing |= with_sum[s]
        failing &= ~up[b]
        if failing:
            c = (failing & -failing).bit_length() - 1
            return {"a": alg.label(a), "b": alg.label(b), "c": alg.label(c)}
    return None


def run_all(alg: FiniteEffectAlgebra) -> TheoremReport:
    """Evaluate every check on one valid model and its ``_verdicts``."""
    return check_verdicts(alg, _verdicts(alg))


def check_verdicts(alg: FiniteEffectAlgebra, v: PropertyProfile) -> TheoremReport:
    """Evaluate every check on one valid model, reading the facts ``classify``
    derived and ``v``, the record of ``_verdicts`` (``build_report`` passes
    the one ``profile`` returned, so a report gathers the verdicts once)."""
    order = derive_order(alg)
    cls = classify(alg)
    n = alg.size
    lab = alg.label
    results: dict[str, CheckResult] = {}

    results["cancellation"] = _cancellation(alg, order)

    sup_le: CheckResult | None = None
    for (a, b, c), s in zip(alg.defined_pairs(), pair_joins(alg)):
        if s is not None and not order.le(s, c):
            sup_le = CheckResult(FAIL, {"a": lab(a), "b": lab(b), "sup": lab(s), "oplus": lab(c)})
            break
    results["sup_le_oplus"] = sup_le or CheckResult(PASS)

    results["omp_iff_principal_iff_join"] = _biconditional(
        cls.omp, cls.omp_by_joins, {"all_principal": cls.omp, "oplus_is_join": cls.omp_by_joins})

    index_one = all(k == 1 for k in isotropic_indices(alg)[1:])
    results["orthoalgebra_iff_index1"] = _biconditional(
        cls.orthoalgebra, index_one,
        {"orthoalgebra": cls.orthoalgebra, "all_indices_one": index_one})

    results["omp_implies_orthoalgebra"] = _implication(cls.omp, cls.orthoalgebra)

    w = v.witnesses
    results["prop_2_6"] = _implication(cls.orthoalgebra, v.archimedean)
    results["prop_2_8"] = _implication(v.orthocomplete, v.archimedean)
    results["prop_3_3"] = _implication(v.orthocomplete or cls.lattice, v.weakly_orthocomplete)
    results["thm_3_2"] = _biconditional(
        v.atomistic, v.atomic and v.disjunctive,
        {"atomistic": v.atomistic, "atomic": v.atomic, "disjunctive": v.disjunctive,
         "atomistic_witness": w.get("atomistic"), "disjunctive_witness": w.get("disjunctive")})
    results["thm_3_7_finite"] = _implication(
        v.weakly_orthocomplete and v.archimedean and v.atomic, v.orthoatomistic,
        w["orthoatomistic"])
    results["orthoatomistic_omp_implies_atomistic"] = _implication(
        v.orthoatomistic and cls.omp, v.atomistic, w.get("atomistic"))

    if cls.orthoalgebra:
        bad = next((a for a in range(1, n) if alg.table[a][a] is not None), None)
        results["self_orthogonal_zero"] = CheckResult(PASS) if bad is None else CheckResult(FAIL, lab(bad))
    else:
        results["self_orthogonal_zero"] = CheckResult(VACUOUS)

    assert tuple(results) == CHECK_IDS
    return TheoremReport(alg.name or f"model(size={n})", results)


class ExhaustiveSummary:
    """What ``run_exhaustive`` saw: models per order, per-check tallies,
    failures as (order, model name, check id, witness) and repeated models."""

    def __init__(self, max_size: int) -> None:
        self.max_size = max_size
        self.models_per_size: dict[int, int] = {}
        self.tallies: dict[str, dict[str, int]] = {}
        self.failures: list[tuple[int, str, str, Any]] = []
        self.duplicate_forms = 0

    @property
    def total_models(self) -> int:
        return sum(self.models_per_size.values())

    def text_table(self) -> str:
        lines = ["order  models", "-----  ------"]
        for size in sorted(self.models_per_size):
            lines.append(f"{size:>5}  {self.models_per_size[size]:>6}")
        lines.append("")
        width = max(len(c) for c in CHECK_IDS)
        lines.append(f"{'check':<{width}}  pass  vacuous  fail")
        for cid in CHECK_IDS:
            t = self.tallies.get(cid, {})
            lines.append(f"{cid:<{width}}  {t.get(PASS, 0):>4}  {t.get(VACUOUS, 0):>7}  "
                         f"{t.get(FAIL, 0):>4}")
        lines.append("")
        lines.append(f"failures: {len(self.failures)}; duplicate canonical forms: {self.duplicate_forms}")
        return "\n".join(lines)


def run_exhaustive(max_size: int, models: Iterable[FiniteEffectAlgebra] | None = None,
                   dump_dir: str | None = None) -> ExhaustiveSummary:
    """Run every check on every effect algebra of order <= max_size.

    A failing model is recorded with its check id and witness and, when
    ``dump_dir`` is given, written out as an .efa file of its own, named
    after the model.  ``models`` must come from ``enumerate_up_to_iso``,
    whose models are their own canonical representatives, so
    ``duplicate_forms`` counts repeated models.
    """
    summary = ExhaustiveSummary(max_size=max_size)
    tallies = {cid: {PASS: 0, VACUOUS: 0, FAIL: 0} for cid in CHECK_IDS}
    if models is None:
        models = (m for size in range(2, max_size + 1)
                  for m in enumerate_up_to_iso(size))
    seen: set[FiniteEffectAlgebra] = set()
    dumped: set[str] = set()
    for model in models:
        if model in seen:
            summary.duplicate_forms += 1
        seen.add(model)
        summary.models_per_size[model.size] = summary.models_per_size.get(model.size, 0) + 1
        report = run_all(model)
        failed_here = False
        for cid, res in report.results.items():
            tallies[cid][res.status] += 1
            if res.status == FAIL:
                summary.failures.append((model.size, model.name, cid, res.witness))
                failed_here = True
        if failed_here and dump_dir is not None:
            from pathlib import Path

            from .models import save

            # models may share a name or have none: a repeat gets _2, _3, ...
            stem = f"theorem_failure_{model.name.replace(':', '_')}"
            file_name, k = f"{stem}.efa", 1
            while file_name in dumped:
                k += 1
                file_name = f"{stem}_{k}.efa"
            dumped.add(file_name)
            target = Path(dump_dir)
            target.mkdir(parents=True, exist_ok=True)
            save(model, target / file_name)
    summary.tallies = tallies
    return summary
