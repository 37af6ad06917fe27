"""Record the seed-0 reference outputs in ``refs/``.

Usage, from the root of a checkout: ``python3 perfbench/record_refs.py``.
Run it only on a commit whose answers are known to be right; the
benchmark then holds every later commit to them.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, Runner
import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workloads.REFS.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = HERE / "_work" / f"record-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            runner = Runner(root, workdir, 0, {})
            refs = {}
            for inv in workloads.build(workload, 0, workdir):
                child = runner.spawn([sys.executable, "-m", "effalg", *inv.args])
                if child.stderr:
                    raise RuntimeError(f"{workload} {inv.key}: "
                                       + child.stderr.decode(errors="replace"))
                refs[inv.key] = {"args": list(inv.args), "exit": child.code,
                                 "stdout": child.stdout.decode("utf-8")}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = workloads.REFS / f"{workload}.json"
        path.write_text(json.dumps(refs, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(root)} ({len(refs)} invocations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
