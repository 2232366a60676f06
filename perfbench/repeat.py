"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --out FILE.json [--seeds 1-10] [--trace 0|1] [WORKLOAD ...]

Runs ``run.py`` once per (workload, seed), one at a time, for
BENCHMARK.json's ``run_seconds`` each, and writes every
run's result line plus, per workload and metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median. The files in baseline/ were made with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = manifest["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            runs.append({"seed": seed, **result, "notes": [l for l in lines if l.startswith("#")]})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]), flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summarise(runs) if runs else {}}
        for name, s in report["workloads"][workload]["summary"].items():
            if s["spread"] is not None and args.trace == 0:
                print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
