"""Self-test of the benchmark itself.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 when every check passes.

For each workload it runs one untraced and one traced pass on seed 0 and
shows that

* every invocation passes the correctness check, and fails it against a
  deliberately wrong reference (on seed 0 and, through the
  isomorphism-invariant fields, on seed 1);
* the traced functions' self times add up to the root span, the root
  span fits inside the traced invocation's CPU time, and every child got a
  host-speed calibration.

It also shows that the tracer skips a traced name that does not exist.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

from run import HERE, Child, Runner, end_to_end_metrics, layer_metric_names, layer_values, scaled
import hostspeed
import tracer
import workloads

results: list[tuple[bool, str]] = []


def expect(ok: bool, what: str) -> None:
    results.append((ok, what))
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def corrupted(refs: dict) -> dict:
    """References that no correct output matches."""
    bad = copy.deepcopy(refs)
    for ref in bad.values():
        if ref["args"][0] == "props":
            doc = json.loads(ref["stdout"])
            doc["valid"] = not doc["valid"]
            ref["stdout"] = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
        else:
            ref["stdout"] += "\n"
    return bad


def check_outputs(runner: Runner, workload: str, seed: int, refs: dict, bad: dict) -> None:
    invocations = workloads.build(workload, seed, runner.workdir)
    for inv in invocations:
        child = runner.spawn([sys.executable, "-m", "effalg", *inv.args])
        good = workloads.check(inv, seed, child.code, child.stdout, child.stderr, refs)
        wrong = workloads.check(inv, seed, child.code, child.stdout, child.stderr, bad)
        expect(good is None, f"{workload} seed {seed} {inv.key}: output passes the check"
               + (f" ({good})" if good else ""))
        expect(wrong is not None, f"{workload} seed {seed} {inv.key}: a wrong reference "
               f"is caught ({wrong})")


def check_trace(runner: Runner, workload: str) -> None:
    invocations = workloads.build(workload, 0, runner.workdir)
    untraced, _ = runner.run_pass(invocations, traced=False)
    traced, spans = runner.run_pass(invocations, traced=True)
    for inv, child, inv_spans in zip(invocations, traced, spans):
        roots = [end - start for name, start, end, parent, _ in inv_spans if parent < 0]
        root = sum(roots)
        self_total = sum(v for k, v in layer_values([inv_spans], [child.speed]).items()
                         if k.count(".") == 1 and k.endswith(".self_s"))
        expect(len(roots) == 1 and inv_spans[0][0] == tracer.ROOT,
               f"{workload} {inv.key}: one root span, {tracer.ROOT}")
        expect(abs(self_total - root * child.speed) <= 1e-6 * max(1.0, root),
               f"{workload} {inv.key}: scaled self times sum to {self_total:.6f} s, "
               f"scaled root span {root * child.speed:.6f} s")
        expect(root <= child.cpu,
               f"{workload} {inv.key}: root span {root:.3f} CPU s within the child's "
               f"{child.cpu:.3f} CPU s")
    expect(all(c.speed > 0 for c in untraced + traced),
           f"{workload}: every child has a calibrated host speed "
           f"({', '.join(f'{c.speed:.2f}' for c in untraced + traced)})")
    expect(not runner.failures, f"{workload}: one untraced and one traced pass correct "
           f"({len(runner.failures)} failures)")
    print(f"      {workload}: scaled pass {scaled(untraced):.3f} s untraced, "
          f"{scaled(traced):.3f} s traced, overhead {scaled(traced) / scaled(untraced):.2f}x")


def check_missing_name_skipped() -> None:
    saved = dict(tracer.TRACED)
    tracer.TRACED["core"] = saved["core"] + ("no_such_function",)
    try:
        spans: list = []
        tracer.install(spans)
        import effalg.core

        wrapped = getattr(effalg.core.validate, "__wrapped__", None) is not None
        expect(wrapped, "tracer skips a missing name and still wraps the others")
    finally:
        tracer.TRACED.clear()
        tracer.TRACED.update(saved)


def check_benchmark_json(root: Path) -> None:
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    expect(declared == layer_metric_names(), "BENCHMARK.json lists every per-layer metric")
    child = Child(wall=0.2, cpu=0.1, speed=1.0, code=0, rss_kib=1024, stdout=b"", stderr=b"")
    reported = end_to_end_metrics({"passes": [[child]], "setup": [[child]]})
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    expect(declared == {k: v["unit"] for k, v in reported.items()},
           "BENCHMARK.json lists every end-to-end metric")
    expect([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists every workload")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "effalg" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    hostspeed.pin_to_one_cpu()
    check_benchmark_json(root)
    for workload in workloads.WORKLOADS:
        workdir = HERE / "_work" / f"selftest-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            refs = workloads.load_refs(workload)
            bad = corrupted(refs)
            check_trace(Runner(root, workdir, 0, refs), workload)
            for seed in (0, 1):
                check_outputs(Runner(root, workdir, seed, refs), workload, seed, refs, bad)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    check_missing_name_skipped()
    failed = [what for ok, what in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
