"""Regenerate reference.json: the accuracy of every pooled seed on every
workload, as this checkout's mmdrl computes it.

Usage, from the root of a checkout: python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only when a change is meant to alter results; the benchmark checks
each operation against these values. Each seed runs as one benchmark
operation (output checks included, reference comparison excluded).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFERENCE, ROOT, run_op
from workloads import POOL, WORKLOADS


def main(names) -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    try:
        for name in names or sorted(WORKLOADS):
            entries = {}
            for seed in POOL:
                op = run_op(WORKLOADS[name], seed, False, work / f"{name}-{seed}", None)
                if "failure" in op:
                    print(f"{name} seed {seed}: {op['failure']}", file=sys.stderr)
                    return 1
                entries[str(seed)] = op["values"]
                print(f"{name} seed {seed}: {op['values']} ({op['wall_s']:.2f} s)", flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
