"""The effalg benchmark: drive the real CLI from outside, one child at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs the workload's fixed list of invocations (see
``workloads.py``), each in a fresh interpreter, each starting after the
previous one exits: a closed loop with one client.  Fresh processes matter
because the package caches by table equality, so a repeated call in one
process would measure a cache hit.  Passes repeat until the next one would
end after ``--seconds``.

Timings are CPU seconds rescaled to one reference host speed: the VM this
was tuned on switches its vCPUs between speeds from one second to the
next, so the benchmark pins itself and its children to one vCPU and a
calibration loop shares it while each child runs (``hostspeed.py``).
``--trace 0`` reports the end-to-end metrics: the median scaled seconds per
pass, the median over passes of the largest child's peak RSS, and the
median scaled time to start an interpreter and import ``effalg.cli``
(sampled twice before each pass).
``--trace 1`` alternates untraced passes with passes run under
``tracer.py`` and reports per-layer calls and self seconds (medians over
the traced passes), the median scaled traced pass and the tracing
overhead.  Every invocation's output is checked; the last line of stdout is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60.0
IMPORTS_PER_CYCLE = 2


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, names in tracer.TRACED.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count"))
            out.append((f"{module}.{name}.self_s", "s"))
        out.append((f"{module}.self_s", "s"))
    out.append(("enumeration.canonicalize_per_class", "ratio"))
    out.append(("trace.pass_cpu_s", "s"))
    out.append(("trace.overhead", "ratio"))
    return out


class Child(NamedTuple):
    wall: float  # seconds from spawn to exit, the vCPU shared with the calibrator
    cpu: float  # user + system seconds
    speed: float  # host speed while it ran, over the reference speed (hostspeed.py)
    code: int
    rss_kib: int  # peak resident set size
    stdout: bytes
    stderr: bytes


class Runner:
    """Runs invocations as child processes and checks what they print."""

    def __init__(self, root: Path, workdir: Path, seed: int, refs: dict):
        self.workdir = workdir
        self.seed = seed
        self.refs = refs
        # Children get the interpreter's defaults, whatever PYTHON* settings the
        # benchmark inherited; bytecode is cached under src/ as for an install.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to its exit, calibrating the host speed while it runs."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            calibrator = hostspeed.Calibrator()
            calibrator.start()
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - start
            finally:
                killer.cancel()
                killer.join()
                speed = calibrator.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return Child(wall, cpu, speed, proc.returncode,
                     usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())

    def run_pass(self, invocations, traced: bool) -> tuple[list[Child], list]:
        """One pass: the children and, if traced, their spans, both in invocation order."""
        children, spans = [], []
        spans_file = self.workdir / "spans.json"
        for inv in invocations:
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans_file), "--", *inv.args]
            else:
                argv = [sys.executable, "-m", "effalg", *inv.args]
            child = self.spawn(argv)
            children.append(child)
            self.attempted += 1
            problem = workloads.check(inv, self.seed, child.code, child.stdout, child.stderr,
                                      self.refs)
            if problem:
                self.failures.append(f"{inv.key}: {problem}")
            if traced:
                spans.append(json.loads(spans_file.read_text(encoding="utf-8"))
                             if spans_file.exists() else [])
                spans_file.unlink(missing_ok=True)
        return children, spans

    def import_child(self) -> Child:
        """A fresh interpreter importing ``effalg.cli``."""
        child = self.spawn([sys.executable, "-c", "import effalg.cli"])
        if child.code != 0:
            raise RuntimeError("importing effalg.cli failed: "
                               + child.stderr.decode(errors="replace"))
        return child


def layer_values(spans_per_invocation: list, speeds: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, all but the ``trace.*`` ones.

    Span seconds are the child's CPU seconds, scaled like the child's total
    by the host speed it ran at.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    classes = 0
    for spans, speed in zip(spans_per_invocation, speeds):
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, items) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + ((end - start) - covered[i]) * speed
            if items is not None:
                classes += items
    out: dict[str, float] = {}
    for module, names in tracer.TRACED.items():
        module_total = 0.0
        for name in names:
            key = f"{module}.{name}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = self_s.get(key, 0.0)
            module_total += self_s.get(key, 0.0)
        out[f"{module}.self_s"] = module_total
    canon = calls.get("enumeration.canonicalize", 0)
    out["enumeration.canonicalize_per_class"] = canon / classes if classes else 0.0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled(children: list[Child]) -> float:
    """CPU seconds of ``children`` at the reference host speed."""
    return sum(child.cpu * child.speed for child in children)


def measure(runner: Runner, invocations, seconds: float, trace: bool) -> dict:
    """Repeat cycles until the next would end after ``seconds``.

    A cycle is ``IMPORTS_PER_CYCLE`` import samples and an untraced pass, or
    with ``trace`` an untraced and a traced pass.  Spreading the import
    samples over the run exposes them to the same host-speed phases as the
    passes.  Samples are lists of children: one per import, a pass's per pass.
    """
    passes, setup, traced, layers = [], [], [], []
    runner.import_child()  # writes the bytecode cache; not a sample
    deadline = perf_counter() + seconds
    while True:
        cycle_start = perf_counter()
        if not trace:
            setup.extend([runner.import_child()] for _ in range(IMPORTS_PER_CYCLE))
        children, _ = runner.run_pass(invocations, traced=False)
        passes.append(children)
        if trace:
            children, spans = runner.run_pass(invocations, traced=True)
            traced.append(children)
            layers.append(layer_values(spans, [child.speed for child in children]))
        now = perf_counter()
        if now + (now - cycle_start) > deadline:
            break
    return {"passes": passes, "setup": setup, "traced": traced, "layers": layers}


def scaled_median(samples: list[list[Child]]) -> float:
    return statistics.median(scaled(children) for children in samples)


def end_to_end_metrics(samples: dict) -> dict:
    peaks = [max(child.rss_kib for child in children) for children in samples["passes"]]
    return {
        "pass_cpu_s": {"value": scaled_median(samples["passes"]), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks) / 1024, "unit": "MiB"},
        "setup_s": {"value": scaled_median(samples["setup"]), "unit": "s"},
    }


def per_layer_metrics(samples: dict) -> dict:
    units = dict(layer_metric_names())
    metrics = {}
    for name in samples["layers"][0]:
        value = statistics.median(layer[name] for layer in samples["layers"])
        metrics[name] = {"value": value, "unit": units[name]}
    traced = scaled_median(samples["traced"])
    metrics["trace.pass_cpu_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced / scaled_median(samples["passes"]),
                                 "unit": "ratio"}
    return metrics


def describe(what: str, samples: list[list[Child]]) -> str:
    """Sample count and quartiles of the wall, CPU and scaled seconds, and the speed."""
    columns = (
        ("wall", [sum(c.wall for c in children) for children in samples]),
        ("cpu", [sum(c.cpu for c in children) for children in samples]),
        ("scaled", [scaled(children) for children in samples]),
        ("speed", [c.speed for children in samples for c in children]),
    )
    parts = []
    for label, values in columns:
        q1, med, q3 = quartiles(values)
        parts.append(f"{label} {med:.4f} ({q1:.4f}-{q3:.4f})")
    return f"{len(samples)} {what}, median (q1-q3): " + ", ".join(parts)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "effalg" / "__init__.py").is_file():
        print(f"error: no effalg sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    cpu = hostspeed.pin_to_one_cpu()
    workdir = HERE / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        invocations = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(root, workdir, args.seed, workloads.load_refs(args.workload))
        samples = measure(runner, invocations, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(invocations)} invocations per pass, "
          f"pinned to cpu {cpu}; error_rate {len(runner.failures)}/{runner.attempted}")
    print(describe("untraced passes", samples["passes"]))
    if args.trace:
        print(describe("traced passes", samples["traced"]))
    else:
        print(describe("imports of effalg.cli", samples["setup"]))
    for reason in runner.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)

    metrics = per_layer_metrics(samples) if args.trace else end_to_end_metrics(samples)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
