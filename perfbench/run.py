"""mmdrl benchmark: the CLI on four fixed workloads, one child process per
operation, in a closed loop (a single client runs one operation at a
time and waits for it to end).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An operation is one configured seed: ``mmdrl run`` followed by
``mmdrl zeroshot-eval`` on the estimate that run wrote, in one child.
The workload seed picks ``seeds_per_run`` configured seeds from the pool that
reference.json covers. A run starts with one untimed warm-up operation,
runs every chosen seed once, then cycles through them again until
``--seconds`` have passed; repeats must write byte-identical files.

--trace 0 prints the end-to-end metrics (medians over the timed
operations, with wall_s and setup_s scaled to a reference host speed,
see CALIB_REFERENCE_S; cramer_mean is the median over the chosen seeds). --trace 1
alternates untraced and traced operations on the same seeds and prints the
per-layer metrics: medians over traced operations of the spans that
tracer.py records, plus tracing overhead and span coverage.

Every operation's outputs are checked (see ``check_outputs``); a failed
check, a nonzero exit or a traceback counts the operation as failed. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import MODULES as LAYERS
from workloads import (
    POOL,
    TD_SUP_MMD_BOUND,
    WORKLOADS,
    ZEROSHOT,
    computed_bytes,
    program_config,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
OP_TIMEOUT_S = 120.0
# The shared host's speed drifts by tens of percent over minutes, and an
# operation's CPU time drifts with its wall time, so raw times of
# successive operations are correlated (lag-1 autocorrelation about 0.5)
# and run medians wander. So before and after each operation the harness
# times a fixed loop (``host_calibration``) and scales the operation's
# wall_s and setup_s by CALIB_REFERENCE_S over the geometric mean of the
# two times. The scaled times are uncorrelated from one operation to the
# next. They are the times at the host speed at which the loop takes
# CALIB_REFERENCE_S, a typical reading on the 2-core Xeon host of the
# baseline. Raw medians are printed on a ``#`` line.
CALIB_REFERENCE_S = 0.004
CALIB_REPEATS = 11
# Share of cli.main time that named layer spans must account for.
MIN_COVERAGE_PCT = 90.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cramer_mean": "1",
}

_SPAN_STATS = (
    ("projections.solve_simplex_qp", ("calls", "self_s", "iterations")),
    ("projections.solve_simplex_qp_batch", ("calls", "self_s", "iterations", "kkt_max")),
    ("projections.SimplexProjector.__init__", ("self_s",)),
    ("projections.SignedProjector.__init__", ("self_s",)),
    ("projections.SignedProjector.affine_map", ("self_s",)),
    ("dp.CategoricalEngine.__init__", ("self_s",)),
    ("dp.CategoricalEngine.init_weights", ("total_s",)),
    ("dp.CategoricalEngine.step_weights", ("calls", "total_s")),
    ("dp.CategoricalEngine.linear_terms", ("self_s",)),
    ("dp.CategoricalEngine.distance", ("self_s",)),
    ("dp.categorical_dp_solve", ("total_s", "sweeps", "unconverged")),
    ("dp.ewp_random_step", ("self_s",)),
    ("kernels.signed_energy_sum", ("calls", "self_s", "pairs")),
    ("kernels.mmd", ("self_s",)),
    ("kernels.gram", ("self_s",)),
    ("kernels.cross_kernel", ("self_s",)),
    ("kernels.pairwise_semimetric", ("self_s",)),
    ("mdp.rollout_returns", ("calls", "self_s", "chain_steps")),
    ("td.categorical_td_run", ("self_s", "steps")),
    ("td.init_td_state", ("total_s",)),
    ("evaluation.cramer_distance", ("calls", "self_s")),
    ("evaluation.zeroshot_scalar", ("self_s",)),
    ("experiments.run_seed", ("total_s",)),
    ("experiments.zeroshot_seed", ("self_s",)),
    ("experiments.run", ("self_s",)),
    ("experiments.zeroshot_run", ("self_s",)),
    ("measures.SupportMap.__init__", ("calls", "total_s")),
    ("cli.main", ("total_s",)),
)


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    return "1" if stat == "kkt_max" else "count"


PER_LAYER = {
    **{f"{span}.{stat}": _unit(stat) for span, stats in _SPAN_STATS for stat in stats},
    "td.categorical_td_run.us_per_step": "us",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "process.cpu_s": "s",
    "process.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_pct": "%",
}


class CheckFailed(Exception):
    """An operation's outputs are missing, malformed or wrong."""


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path, header: list) -> list:
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    if lines[0] != ",".join(header):
        raise CheckFailed(f"{path.name}: header {lines[0]!r}, expected {','.join(header)!r}")
    if lines[-1] != "":
        raise CheckFailed(f"{path.name}: last line not CRLF-terminated")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    if not rows or not all(len(r) == len(header) and all(map(math.isfinite, r)) for r in rows):
        raise CheckFailed(f"{path.name}: empty, ragged or non-finite rows")
    return rows


def check_outputs(workload, seed: int, run_out: Path, zs_out: Path, reference: dict) -> dict:
    """Parse and check one operation's files; return its accuracy values
    and the digests of the files whose bytes must repeat."""
    cfg = workload.config
    algorithm = cfg["algorithm"]
    try:
        summary = json.loads((run_out / "summary.json").read_text(encoding="utf-8"))
        per_seed = summary["per_seed"]
        if [s["seed"] for s in per_seed] != [seed]:
            raise CheckFailed(f"summary.json covers seeds {[s['seed'] for s in per_seed]}")
        if algorithm == "td-cat":
            header = ["seed", "step", "sup_mmd_to_reference", "mean_step_size"]
        else:
            header = ["seed", "iteration", "sup_mmd"]
        series = _read_csv(run_out / "series.csv", header)
        if algorithm == "dp-cat":
            if not per_seed[0]["converged"] or per_seed[0]["final_distance"] > cfg["dp"]["tol"]:
                raise CheckFailed(f"DP did not converge to tol: {per_seed[0]}")
        estimate_path = run_out / f"seed_{seed}" / "estimate.json"
        estimate = json.loads(estimate_path.read_text(encoding="utf-8"))
        estimate_l1 = max(math.fsum(map(abs, m["weights"])) for m in estimate["measures"])
        for x, measure in enumerate(estimate["measures"]):
            weights = measure["weights"]
            if abs(math.fsum(weights) - 1.0) > 1e-9:
                raise CheckFailed(f"state {x} estimate has mass {math.fsum(weights)}")
            if algorithm != "td-cat" and min(weights) < -1e-12:
                raise CheckFailed(f"state {x} estimate has negative weights")
        dim = workload.mdp["d"]
        zs_header = ["seed", "draw"] + [f"w_{j}" for j in range(dim)] + ["cramer_mean"]
        zs_rows = _read_csv(zs_out / "zeroshot.csv", zs_header)
        if len(zs_rows) != ZEROSHOT["reward_draws"] or any(r[-1] < 0 for r in zs_rows):
            raise CheckFailed("zeroshot.csv: wrong row count or negative distance")
        zs_summary = json.loads((zs_out / "zeroshot_summary.json").read_text(encoding="utf-8"))
        cramer = float(zs_summary["cramer_mean"])
        if not math.isclose(cramer, statistics.fmean(r[-1] for r in zs_rows), rel_tol=1e-12):
            raise CheckFailed("zeroshot_summary.json cramer_mean disagrees with zeroshot.csv")
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from exc

    values = {"cramer_mean": cramer}
    if algorithm == "td-cat":
        values["sup_mmd_to_reference"] = series[-1][2]
        if values["sup_mmd_to_reference"] > TD_SUP_MMD_BOUND:
            raise CheckFailed(f"final sup_mmd_to_reference {series[-1][2]} > {TD_SUP_MMD_BOUND}")
    if reference is not None:
        _check_reference(workload, values, reference.get(str(seed)), estimate_l1)
    digests = {
        "series.csv": _sha(run_out / "series.csv"),
        "estimate.json": _sha(estimate_path),
        "zeroshot.csv": _sha(zs_out / "zeroshot.csv"),
    }
    return {"values": values, "digests": digests}


def _check_reference(workload, values: dict, ref, estimate_l1: float) -> None:
    """Accuracy must match the committed value for the seed, to the
    tolerance the workload justifies (see workloads.py)."""
    if ref is None:
        raise CheckFailed("no committed reference for this seed")
    for name, tol in workload.tolerances(ref, estimate_l1).items():
        if abs(values[name] - ref[name]) > tol:
            raise CheckFailed(f"{name} {values[name]!r} vs reference {ref[name]!r} (tol {tol:.3g})")


def run_op(workload, seed: int, trace: bool, op_dir: Path, reference: dict, config=None) -> dict:
    """Spawn one operation, wait for it, and check what it wrote.

    Returns timings and rusage of the child plus either ``values`` and
    ``digests`` or a ``failure`` reason. ``config`` overrides the
    workload's generated config (used by the self-test)."""
    op_dir.mkdir(parents=True)
    run_out, zs_out = op_dir / "run", op_dir / "zs"
    config_path = op_dir / "config.json"
    if config is None:
        config = program_config(workload, seed, run_out)
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    result_path = op_dir / "result.json"
    argv = [sys.executable, str(CHILD), str(result_path), "1" if trace else "0",
            str(config_path), str(run_out), str(zs_out)]
    with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=op_dir)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    # Tell Popen the child is reaped, so it does not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = {
        "seed": seed,
        "traced": trace,
        "exit": proc.returncode,
        "wall_s": end - spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    stderr = (op_dir / "stderr").read_text(encoding="utf-8", errors="replace")
    try:
        child = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        child = {}
    op["cli_main_s"] = sum(child.get("cli_main_s", []))
    op["spans"] = child.get("spans")
    op["blas_threads"] = child.get("blas_threads")
    op["blas_config"] = child.get("blas_config")
    if "setup_mark" in child:
        op["setup_s"] = child["setup_mark"] - spawn
    last_line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if proc.returncode in (2, 3):
        op["failure"] = f"reported failure, exit {proc.returncode}: {last_line}"
    elif proc.returncode != 0 or "Traceback" in stderr:
        op["failure"] = f"crash, exit {proc.returncode}: {last_line}"
    elif "setup_s" not in op:
        op["failure"] = "child never entered an engine"
    else:
        try:
            op.update(check_outputs(workload, seed, run_out, zs_out, reference))
        except CheckFailed as exc:
            op["failure"] = f"output check: {exc}"
    shutil.rmtree(op_dir, ignore_errors=True)
    return op


def host_calibration() -> float:
    """Median seconds over CALIB_REPEATS runs of a fixed pure-Python loop.

    The host flips between a fast and a slow state within a second, so
    the median (the state the host is mostly in) tracks an operation's
    speed better than the fastest run. A numpy loop was tried too: its
    time varied more from call to call than the operations' did."""
    times = []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_facts() -> dict:
    import platform

    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _span_value(spans: dict, name: str) -> float:
    span, _, stat = name.rpartition(".")
    return float(spans.get(span, {}).get(stat, 0))


def per_layer_metrics(pairs: list) -> dict:
    """Medians over (untraced, traced) operation pairs of the same seed."""
    traced = [t["spans"] for _, t in pairs]
    plain = [u for u, _ in pairs]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith(("layer.", "process.", "trace.")) or name.endswith("us_per_step"):
            continue
        metrics[name] = (_median(_span_value(s, name) for s in traced), unit)

    def us_per_step(s):
        steps = _span_value(s, "td.categorical_td_run.steps")
        return 1e6 * _span_value(s, "td.categorical_td_run.self_s") / steps if steps else 0.0

    def coverage(s):
        total = _span_value(s, "cli.main.total_s")
        return 100.0 * (total - _span_value(s, "cli.main.self_s")) / total if total else 0.0

    metrics["td.categorical_td_run.us_per_step"] = (_median(map(us_per_step, traced)), "us")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            _median(sum(v["self_s"] for k, v in s.items() if k.startswith(layer + ".")) for s in traced),
            "s",
        )
    metrics["process.cpu_s"] = (_median(u["cpu_s"] for u in plain), "s")
    metrics["process.startup_s"] = (_median(u["wall_s"] - u["cli_main_s"] for u in plain), "s")
    metrics["trace.overhead_s"] = (_median(t["wall_s"] - u["wall_s"] for u, t in pairs), "s")
    metrics["trace.coverage_pct"] = (_median(map(coverage, traced)), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mmdrl" / "cli.py").is_file():
        print(f"error: no mmdrl source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    seeds = random.Random(args.seed).sample(POOL, workload.seeds_per_run)
    trace = bool(args.trace)

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ops, failures, first_digests = [], [], {}
    counter = itertools.count()

    calibrations = [host_calibration()]

    def op(seed, traced):
        result = run_op(workload, seed, traced, work / f"op{next(counter)}", reference)
        calibrations.append(host_calibration())
        # The host's speed over the operation, from the loop just before and just after it.
        result["calib_s"] = math.sqrt(calibrations[-2] * calibrations[-1])
        ops.append(result)
        if "failure" in result:
            failures.append(f"seed {seed}{' traced' if traced else ''}: {result['failure']}")
        elif first_digests.setdefault(seed, result["digests"]) != result["digests"]:
            failures.append(f"seed {seed}{' traced' if traced else ''}: files differ from the seed's first run")
            result["failure"] = "nondeterministic output"
        return result

    try:
        op(seeds[0], False)  # warm-up: file cache and bytecode; not timed
        start = time.monotonic()
        timed, pairs, i = [], [], 0
        while i < (len(seeds) if not trace else 1) or time.monotonic() - start < args.seconds:
            seed = seeds[i % len(seeds)]
            untraced = op(seed, False)
            timed.append(untraced)
            if trace:
                pairs.append((untraced, op(seed, True)))
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [o for o in timed if "failure" not in o]
    if trace:
        good_pairs = [(u, t) for u, t in pairs if "failure" not in u and "failure" not in t]
        missing = sorted({name for _, t in good_pairs for name in workload.spans if not t["spans"].get(name, {}).get("calls")})
        for name in missing:
            failures.append(f"span {name} recorded no call on {workload.name}")
        metrics = per_layer_metrics(good_pairs) if good_pairs else {}
        if metrics and metrics["trace.coverage_pct"][0] < MIN_COVERAGE_PCT:
            failures.append(f"named spans cover only {metrics['trace.coverage_pct'][0]:.1f}% of cli.main")
    else:
        first_pass = {o["seed"]: o for o in reversed(good)}
        values = {
            "wall_s": _median(o["wall_s"] * CALIB_REFERENCE_S / o["calib_s"] for o in good),
            "setup_s": _median(o["setup_s"] * CALIB_REFERENCE_S / o["calib_s"] for o in good),
            "peak_rss_mb": _median(o["peak_rss_mb"] for o in good),
            "cramer_mean": _median(o["values"]["cramer_mean"] for o in first_pass.values()),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    facts = machine_facts()
    blas = next((o for o in ops if o.get("blas_config")), {})
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed} -> configured seeds {seeds}; closed loop, 1 client; trace {int(trace)}")
    print(f"# machine {json.dumps(facts)}")
    print(f"# blas threads {blas.get('blas_threads')} ({blas.get('blas_config')}), as inherited")
    print(f"# computed bytes (not measured traffic; LLC {facts.get('L3_unified')}): "
          f"{json.dumps(computed_bytes(workload))}")
    attempted = len(ops)
    failed = sum("failure" in o for o in ops)
    print(f"# operations attempted {attempted}, failed {failed}, error_rate {failed / attempted:.4f}")
    print(f"# timed operations {len(good)}{' untraced, each paired with a traced one' if trace else ''} (+1 untimed warm-up)")
    if not trace and good:
        walls = sorted(o["wall_s"] for o in good)
        print(f"# raw wall_s median {_median(walls):.4f} min {walls[0]:.4f} max {walls[-1]:.4f} n {len(walls)}; "
              f"raw setup_s median {_median(o['setup_s'] for o in good):.4f}")
        calib = sorted(o["calib_s"] for o in good)
        print(f"# host calibration median {_median(calib):.5f} min {calib[0]:.5f} max {calib[-1]:.5f} s "
              f"(reference {CALIB_REFERENCE_S} s; wall_s and setup_s are scaled by reference / calibration)")
        td = [o["values"]["sup_mmd_to_reference"] for o in first_pass.values() if "sup_mmd_to_reference" in o["values"]]
        if td:
            print(f"# sup_mmd_to_reference median over seeds {_median(td)!r} (bound {TD_SUP_MMD_BOUND})")
    if trace and metrics:
        total = metrics["cli.main.total_s"][0]
        shares = ", ".join(
            f"{layer} {100.0 * metrics[f'layer.{layer}.self_s'][0] / total:.1f}%" for layer in LAYERS
        ) if total else ""
        print(f"# layer self-time shares of cli.main: {shares}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
