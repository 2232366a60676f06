"""Self-test of the benchmark harness.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks, in about a minute:
* BENCHMARK.json names exactly the workloads and metrics run.py prints;
* malformed or failing configs are counted as failed operations and the
  harness keeps going;
* on every workload, a traced and an untraced operation write
  byte-identical series.csv, estimate.json and zeroshot.csv, every span
  the workload is meant to exercise records a call, and the named spans
  cover at least 90 % of cli.main;
* without the program's sources the benchmark exits nonzero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import END_TO_END, MIN_COVERAGE_PCT, PER_LAYER, REFERENCE, ROOT, run_op
from workloads import WORKLOADS, program_config


def check_manifest() -> list:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.py")
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != printed:
            problems.append(f"{key} differs from run.py: {sorted(set(listed) ^ set(printed))}")
    return problems


def check_failures_counted(work) -> list:
    """Each case must come back as a failed operation, not an exception."""
    grid = WORKLOADS["zeroshot-d2-grid"]
    td = WORKLOADS["td-cat-dsm"]
    good = program_config(grid, 0, work / "x" / "run")
    td_cfg = program_config(td, 0, work / "x" / "run")
    cases = {
        "unknown algorithm (exit 2)": (grid, {**good, "algorithm": "nope"}),
        "config that is not an object (exit 2)": (grid, [1, 2]),
        "report_interval 0": (td, {**td_cfg, "td": {**td_cfg["td"], "report_interval": 0}}),
        "DP stopped before tol (output check)": (grid, {**good, "dp": {**good["dp"], "max_iter": 2}}),
    }
    problems = []
    for i, (label, (workload, config)) in enumerate(cases.items()):
        # Output paths inside the config must point at this operation's directory.
        if isinstance(config, dict) and "zeroshot" in config:
            config = {**config, "zeroshot": program_config(workload, 0, work / f"bad{i}" / "run")["zeroshot"]}
        op = run_op(workload, 0, False, work / f"bad{i}", None, config=config)
        status = op.get("failure", "not counted as failed")
        print(f"  {label}: {status[:100]}")
        if "failure" not in op:
            problems.append(f"{label} was not counted as a failure")
    return problems


def check_workload(workload, reference, work) -> list:
    plain = run_op(workload, 0, False, work / f"{workload.name}-plain", reference)
    traced = run_op(workload, 0, True, work / f"{workload.name}-traced", reference)
    problems = [f"{workload.name}: {op['failure']}" for op in (plain, traced) if "failure" in op]
    if problems:
        return problems
    if plain["digests"] != traced["digests"]:
        problems.append(f"{workload.name}: traced outputs differ from untraced")
    spans = traced["spans"]
    problems += [
        f"{workload.name}: span {name} recorded no call"
        for name in workload.spans
        if not spans.get(name, {}).get("calls")
    ]
    main_span = spans["cli.main"]
    coverage = 1.0 - main_span["self_s"] / main_span["total_s"]
    if 100.0 * coverage < MIN_COVERAGE_PCT:
        problems.append(f"{workload.name}: spans cover {coverage:.1%} of cli.main")
    print(
        f"  {workload.name}: coverage {coverage:.2%}, tracing overhead "
        f"{traced['wall_s'] - plain['wall_s']:+.3f} s, outputs identical"
    )
    return problems


def check_without_sources(work) -> list:
    bare = work / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "td-cat-dsm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark succeeded without the program's sources"]
    return []


def main() -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    problems = check_manifest()
    try:
        print("failure accounting:")
        problems += check_failures_counted(work)
        print("workloads:")
        for workload in WORKLOADS.values():
            problems += check_workload(workload, reference[workload.name], work)
        problems += check_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
