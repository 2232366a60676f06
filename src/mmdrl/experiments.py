"""Reproducible experiment runners behind the CLI.

A run takes a resolved config (see ``config``). Every run echoes it,
writes per-seed CSV series plus a merged CSV, and serializes final
estimates as measure JSON. Given the same config, the CSV outputs are
byte-identical across reruns; wall times live only in the JSON summary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import CONFIG_VERSION, ExperimentConfig
from .dp import DpReport, EwpConfig, categorical_dp_solve, ewp_random_solve
from .errors import check_doubles, json_array, json_list, read_fields, read_json, require
from .evaluation import ScalarDist, cramer_distance, zeroshot_scalar
from .kernels import KernelSpec, mmd
from .measures import (
    PROBABILITY_TOL,
    DiscreteMeasure,
    ReturnDistFn,
    SupportMap,
    _check_distinct,
    as_probability,
)
from .mdp import (
    TabularMDP,
    dsm_mdp,
    horizon_for_tail,
    random_mdp,
    rng_stream,
    rollout_returns,
)
from .projections import project_simplex
from .td import StepSchedule, TdReport, categorical_td_run, ewp_td_run

# Stream ids carving up each seed's randomness by purpose.
_STREAM_MDP = 0
_STREAM_SUPPORT = 1
_STREAM_ALGO = 2
_STREAM_REWARDS = 3
_STREAM_ORACLE = 4


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _check_extent(what: str, points, dim: int) -> None:
    """Raise ``InvalidInputError``, naming ``what``, when ``points`` reach
    so far from 0 that squared distances among them could overflow.

    Coordinates of magnitude at most E are at most 2E apart, so every
    squared distance is at most dim (2E)^2. Where that is finite, so is
    every merge key E / 1e-12. Every file and config value that brings
    points into a run (the MDP's v_max, support, TD reference and zero-shot
    estimate) passes this check.
    """
    extent = float(np.max(np.abs(points)))
    require(math.isfinite(dim * (2.0 * extent) * (2.0 * extent)),
            f"{what} reaches {extent:.6g}: squared distances between such "
            f"points overflow in {dim} dimension(s)")


def build_mdp(mc: dict, seed: int) -> TabularMDP:
    """The MDP a resolved ``mdp`` config section describes; returns lie in
    [0, v_max]^d, which ``_check_extent`` bounds."""
    if mc["kind"] == "file":
        mdp = TabularMDP.load(mc["path"])
    elif mc["kind"] == "dsm":
        rng = rng_stream(seed, _STREAM_MDP)
        rows = rng.dirichlet(
            np.full(mc["n_states"], mc["dirichlet_concentration"]),
            size=mc["n_states"],
        )
        mdp = dsm_mdp(rows, mc["gamma"])
    else:
        check_doubles(mc["n_states"] * mc["dim"], "mdp.n_states * mdp.dim")
        mdp = random_mdp(
            mc["n_states"],
            mc["dim"],
            mc["gamma"],
            mc["dirichlet_concentration"],
            rng_stream(seed, _STREAM_MDP),
            mc["r_max"],
        )
    _check_extent("mdp v_max", mdp.v_max, mdp.dim)
    return mdp


_SUPPORT_FILE = {"atoms": json_list(json_array("points"), "support file atoms")}


def build_support(sc: dict, mdp: TabularMDP, seed: int) -> SupportMap:
    """The support map a resolved ``support`` config section describes."""
    if sc["kind"] in ("grid", "random"):
        # A grid has round(m^(1/d))^d atoms, which can be more than m.
        m = max(sc["m"], 0)
        atoms = round(m ** (1.0 / mdp.dim)) ** mdp.dim if sc["kind"] == "grid" else m
        check_doubles(atoms * mdp.dim, "support.m")
    if sc["kind"] == "grid":
        support = SupportMap.uniform_grid(mdp.n_states, mdp.dim, sc["m"], mdp.v_max)
    elif sc["kind"] == "random":
        rng = rng_stream(seed, _STREAM_SUPPORT)
        support = SupportMap.random(mdp.n_states, mdp.dim, sc["m"], mdp.v_max, rng)
    elif sc["kind"] == "simplex-grid":
        support = SupportMap.simplex_grid(
            mdp.n_states, mdp.dim, sc["resolution"], scale=mdp.v_max
        )
    else:
        payload = read_json(sc["path"], "support file")
        support = SupportMap(read_fields(payload, _SUPPORT_FILE, "support file")["atoms"])
    _check_extent("support", np.concatenate(support.atoms), support.dim)
    return support


def _td_reference_fn(td: dict, mdp, support, spec) -> ReturnDistFn | None:
    """What a TD run measures its distance to: the signed-DP fixed point on
    its support, a saved estimate (one measure per state, of the MDP's
    dimension), or nothing."""
    if td["reference"] == "signed-dp":
        return categorical_dp_solve(
            mdp, support, spec, tol=1e-10, max_iter=2000, projection="signed"
        ).final
    if td["reference"] is None:
        return None
    reference = ReturnDistFn.load(td["reference"]["path"])
    reference.check_fits(mdp, "td.reference")
    _check_extent("td.reference", np.concatenate([m.atoms for m in reference]), mdp.dim)
    return reference


def _dp_series(report: DpReport) -> dict:
    return {"iteration": range(1, len(report.distances) + 1), "sup_mmd": report.distances}


def _td_series(report: TdReport) -> dict:
    return {"step": report.steps, "sup_mmd_to_reference": report.sup_mmd,
            "mean_step_size": report.mean_step_size}


# Each runner returns (series, estimate, summary): the series columns by
# name, the first an integer index and the second the distance that
# final_distance reports. Engines are called by their module-level names;
# the dp section's fields are categorical_dp_solve's keyword arguments.
def _run_dp_cat(config, seed, mdp, spec):
    support = build_support(config["support"], mdp, seed)
    report = categorical_dp_solve(mdp, support, spec, **config["dp"])
    summary = {"iterations": report.iterations, "converged": report.converged}
    return _dp_series(report), report.final, summary


def _run_dp_ewp(config, seed, mdp, spec):
    ewp = EwpConfig(config["ewp"]["particles"], config["ewp"]["iterations"])
    report = ewp_random_solve(mdp, ewp, spec, rng=rng_stream(seed, _STREAM_ALGO))
    summary = {"iterations": report.iterations, "converged": True}
    return _dp_series(report), report.final, summary


def _run_td_cat(config, seed, mdp, spec):
    td = config["td"]
    support = build_support(config["support"], mdp, seed)
    schedule = StepSchedule(**td["schedule"])
    rng = rng_stream(seed, _STREAM_ALGO)
    start = time.perf_counter()
    reference = _td_reference_fn(td, mdp, support, spec)
    reference_s = time.perf_counter() - start
    state, report = categorical_td_run(
        mdp, support, spec, schedule, td["steps"], rng,
        state_sampler=td["state_sampler"], reference=reference,
        report_interval=td["report_interval"],
    )
    summary = {"steps": state.step, "reference_s": reference_s}
    return _td_series(report), state.estimate, summary


def _run_td_ewp(config, seed, mdp, spec):
    td = config["td"]
    state, report = ewp_td_run(
        mdp, td["particles"], spec, StepSchedule(**td["schedule"]), td["steps"],
        rng_stream(seed, _STREAM_ALGO), reference=_td_reference_fn(td, mdp, None, spec),
        report_interval=td["report_interval"],
    )
    return _td_series(report), state.estimate, {"steps": state.step}


_RUNNERS = {"dp-cat": _run_dp_cat, "dp-ewp": _run_dp_ewp,
            "td-cat": _run_td_cat, "td-ewp": _run_td_ewp}


@dataclass
class SeedResult:
    seed: int
    header: list
    rows: list
    estimate: ReturnDistFn
    wall_time_s: float
    summary: dict


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Execute the configured algorithm for one seed.

    ``final_distance`` is the last reported distance, or ``None`` when
    there is none or it is not finite (TD without a reference).
    """
    start = time.perf_counter()
    mdp = build_mdp(config["mdp"], seed)
    spec = KernelSpec(config["kernel"]["alpha"])
    series, estimate, summary = _RUNNERS[config.algorithm](config, seed, mdp, spec)
    rows = [[str(i), *map(_fmt, values)] for i, *values in zip(*series.values())]
    distances = list(series.values())[1]
    last = distances[-1] if len(distances) else math.nan
    summary["final_distance"] = last if math.isfinite(last) else None
    summary["support_atoms"] = [measure.n_atoms for measure in estimate]
    wall = time.perf_counter() - start
    return SeedResult(seed, list(series), rows, estimate, wall, summary)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(row) + "\r\n")


def run(config: ExperimentConfig, out_dir) -> dict:
    """Run every configured seed and write CSV/JSON reports.

    Returns the summary payload that is also written to summary.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [run_seed(config, s) for s in config.seeds]

    merged_rows = []
    per_seed = []
    for res in results:
        seed_dir = out / f"seed_{res.seed}"
        seed_dir.mkdir(exist_ok=True)
        _write_csv(seed_dir / "series.csv", res.header, res.rows)
        estimate_file = str(seed_dir / "estimate.json")
        res.estimate.save(estimate_file)
        merged_rows.extend([[str(res.seed)] + row for row in res.rows])
        per_seed.append(
            {
                "seed": res.seed,
                "series_file": str(seed_dir / "series.csv"),
                "estimate_file": estimate_file,
                "wall_time_s": res.wall_time_s,
                **res.summary,
            }
        )
    _write_csv(out / "series.csv", ["seed"] + results[0].header, merged_rows)
    summary = {
        "format_version": CONFIG_VERSION,
        "config": config.resolved,
        "per_seed": per_seed,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def nonaffinity_certificate(alpha: float = 1.0) -> dict:
    """Compare projecting a two-point mixture against mixing the projections.

    Uses the 4x4 integer grid in the plane, point masses at (1.5, 1.5) and
    (2.5, 0), and mixture coefficient 0.8 on the first; the two resulting
    weight vectors differ, certifying that the simplex projection is not
    affine.
    """
    spec = KernelSpec(alpha)
    grid = np.array(
        [[i, j] for i in range(4) for j in range(4)], dtype=np.float64
    )
    p1 = DiscreteMeasure.point([1.5, 1.5])
    p2 = DiscreteMeasure.point([2.5, 0.0])
    lam = 0.8
    mix = DiscreteMeasure(
        np.concatenate([p1.atoms, p2.atoms], axis=0), np.array([lam, 1.0 - lam])
    )
    projected_mixture = project_simplex(mix, grid, spec)
    proj_1 = project_simplex(p1, grid, spec)
    proj_2 = project_simplex(p2, grid, spec)
    mixture_of_projections = DiscreteMeasure(
        grid, lam * proj_1.weights + (1.0 - lam) * proj_2.weights
    )
    gap = mmd(projected_mixture, mixture_of_projections, spec)
    return {
        "support": grid,
        "mixture_coefficient": lam,
        "projected_mixture": projected_mixture.weights,
        "mixture_of_projections": mixture_of_projections.weights,
        "mmd_gap": gap,
    }


def _sample_reward_vector(rng: np.random.Generator, dim: int, nonnegative: bool) -> np.ndarray:
    w = rng.normal(size=dim)
    norm = np.linalg.norm(w)
    while norm == 0.0:
        w = rng.normal(size=dim)
        norm = np.linalg.norm(w)
    w = w / norm
    return np.abs(w) if nonnegative else w


def _as_probability_fn(estimate: ReturnDistFn, spec: KernelSpec) -> ReturnDistFn:
    """Project any signed state estimates onto probability weights."""
    measures = []
    for x, m in enumerate(estimate):
        if np.min(m.weights) >= -PROBABILITY_TOL:
            measures.append(as_probability(m))
        else:
            _check_distinct(m.atoms, f"zeroshot.estimate atoms at state {x}")
            measures.append(project_simplex(m, m.atoms, spec))
    return ReturnDistFn(tuple(measures))


def zeroshot_seed(config: ExperimentConfig, seed: int, estimate: ReturnDistFn | None = None):
    """Per-seed zero-shot evaluation rows (one per reward draw), plus the
    wall seconds spent on the Monte Carlo oracle and on scoring the draws,
    each summed over states.

    The estimate comes from the configured source: solved in-run, loaded
    from a file (a ``{seed}`` placeholder in the path is substituted), or
    passed in directly. One of another state count or dimension than the
    MDP raises ``InvalidInputError`` before any rollout.
    """
    mdp = build_mdp(config["mdp"], seed)
    spec = KernelSpec(config["kernel"]["alpha"])
    zs = config["zeroshot"]
    if estimate is None:
        if zs["estimate"]["kind"] == "file":
            estimate = ReturnDistFn.load(zs["estimate"]["path"].format(seed=seed))
        else:
            estimate = run_seed(config, seed).estimate
    estimate.check_fits(mdp, "zeroshot.estimate")
    _check_extent("zeroshot.estimate", np.concatenate([m.atoms for m in estimate]), mdp.dim)
    probability_estimate = _as_probability_fn(estimate, spec)
    reward_rng = rng_stream(seed, _STREAM_REWARDS)
    oracle_rng = rng_stream(seed, _STREAM_ORACLE)
    horizon = horizon_for_tail(mdp, zs["tail_tol"])
    draws = [
        _sample_reward_vector(reward_rng, mdp.dim, zs["nonnegative_orthant"])
        for _ in range(zs["reward_draws"])
    ]
    # One state's rollouts and one draw's truth are live at a time, each
    # dropped once scored. oracle_rng is consumed in state order.
    errors = [[] for _ in draws]
    oracle_s = scoring_s = 0.0
    for x in range(mdp.n_states):
        start = time.perf_counter()
        samples = rollout_returns(mdp, x, horizon, zs["oracle_samples"], oracle_rng)
        scoring_start = time.perf_counter()
        n = samples.shape[0]
        # ScalarDist never writes to its inputs, so the draws share these.
        truth_weights = np.full(n, 1.0 / n)
        for w, draw_errors in zip(draws, errors):
            predicted = zeroshot_scalar(probability_estimate[x], w)
            truth = ScalarDist(samples @ w, truth_weights)
            draw_errors.append(cramer_distance(predicted, truth))
            del truth
        del samples
        oracle_s += scoring_start - start
        scoring_s += time.perf_counter() - scoring_start
    rows = [
        [str(seed), str(draw)] + [_fmt(v) for v in w] + [_fmt(float(np.mean(e)))]
        for draw, (w, e) in enumerate(zip(draws, errors))
    ]
    return rows, oracle_s, scoring_s


def zeroshot_run(config: ExperimentConfig, out_dir) -> dict:
    """Zero-shot evaluation across seeds; writes per-draw CSV and a summary."""
    require("zeroshot" in config.resolved, "config carries no zeroshot section")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [zeroshot_seed(config, s) for s in config.seeds]
    rows = [row for seed_rows, _, _ in results for row in seed_rows]
    spec_dim = (len(rows[0]) - 3) if rows else 0
    header = ["seed", "draw"] + [f"w_{j}" for j in range(spec_dim)] + ["cramer_mean"]
    _write_csv(out / "zeroshot.csv", header, rows)
    errors = np.array([float(r[-1]) for r in rows])
    mean = float(np.mean(errors))
    half_width = (
        1.96 * float(np.std(errors, ddof=1)) / math.sqrt(errors.size)
        if errors.size > 1
        else 0.0
    )
    summary = {
        "format_version": CONFIG_VERSION,
        "config": config.resolved,
        "rows": len(rows),
        "cramer_mean": mean,
        "cramer_ci95": [mean - half_width, mean + half_width],
        "oracle_s": sum(r[1] for r in results),
        "scoring_s": sum(r[2] for r in results),
    }
    with open(out / "zeroshot_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary
