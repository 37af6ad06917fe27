"""JSON report assembly with a fixed key layout.

Top-level keys, in order: "model", "valid", "violations", "profile",
"witnesses", "theorems".  Booleans are never null; witnesses are rendered
with element labels so reports are readable without the table at hand.
The schema shipped at ``data/report.schema.json`` pins the layout.
"""

from __future__ import annotations

from typing import Any

from .core import FiniteEffectAlgebra, ValidationReport, validate
from .properties import PropertyProfile, profile
from .theorems import CHECK_IDS, TheoremReport, check_verdicts


def schema() -> dict:
    # imported here: from Python 3.12 on, importlib.resources loads inspect,
    # and no command reads the schema
    import importlib.resources
    import json

    data = importlib.resources.files("effalg").joinpath("data/report.schema.json")
    return json.loads(data.read_text(encoding="utf-8"))


def _violations_json(alg: FiniteEffectAlgebra, report: ValidationReport) -> list[dict]:
    return [
        {
            "axiom": v.axiom,
            "witness": [alg.label(i) for i in v.witness],
            "message": v.message,
        }
        for v in report.violations
    ]


def _witness_json(alg: FiniteEffectAlgebra, value: Any) -> Any:
    """Render a witness (None, bools, strings, element indices, and dicts,
    lists or tuples of them) with labels; element indices become strings."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, int):
        return alg.label(value)
    if isinstance(value, dict):
        return {_key(alg, k): _witness_json(alg, v) for k, v in value.items()}
    return [_witness_json(alg, v) for v in value]


def _key(alg: FiniteEffectAlgebra, k: Any) -> str:
    return alg.label(k) if isinstance(k, int) and not isinstance(k, bool) else str(k)


def _profile_json(alg: FiniteEffectAlgebra, prof: PropertyProfile) -> dict:
    out: dict[str, Any] = prof.flags()
    out["atoms"] = [alg.label(a) for a in prof.atoms]
    return out


def _theorems_json(alg: FiniteEffectAlgebra, report: TheoremReport) -> dict:
    out = {}
    for cid in CHECK_IDS:
        res = report.results[cid]
        entry: dict[str, Any] = {"status": res.status}
        if res.witness is not None:
            entry["witness"] = _witness_json(alg, res.witness)
        out[cid] = entry
    return out


def skeleton(name: str, size: int | None) -> dict[str, Any]:
    """The report layout of a valid model with nothing found: keys in order."""
    return {"model": {"name": name, "size": size}, "valid": True, "violations": [],
            "profile": {}, "witnesses": {}, "theorems": {}}


def build_report(alg: FiniteEffectAlgebra) -> dict:
    """The full JSON report for one model (profile only when valid).  The
    theorem checks read the verdict record that ``profile`` returned."""
    validation = validate(alg)
    doc = skeleton(alg.name, alg.size)
    doc["valid"] = validation.valid
    doc["violations"] = _violations_json(alg, validation)
    if validation.valid:
        prof = profile(alg)
        doc["profile"] = _profile_json(alg, prof)
        doc["witnesses"] = {str(k): _witness_json(alg, v) for k, v in prof.witnesses.items()}
        doc["theorems"] = _theorems_json(alg, check_verdicts(alg, prof))
    return doc


# json.dumps's escapes (ensure_ascii=False): short forms, else \u00xx; the rest is raw
_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_ESCAPES.update((ord(c), "\\" + e) for c, e in zip('"\\\n\r\t\b\f', '"\\nrtbf'))


def dumps_report(doc: dict) -> str:
    """``json.dumps(doc, ensure_ascii=False, indent=2) + "\\n"``, for the types
    reports hold: dicts with str keys, lists, tuples, str, bool, None, int."""
    return _dumps(doc, "\n") + "\n"


def _dumps(value: Any, newline: str) -> str:
    # `newline` is a line break and the indent of the line that opens `value`
    if isinstance(value, str):
        if '"' in value or "\\" in value or not value.isprintable():
            value = value.translate(_ESCAPES)
        return f'"{value}"'
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise TypeError("report keys must be str")
        items = [f"{_dumps(k, inner)}: {_dumps(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_dumps(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
