"""Reproducible experiment configs and runners behind the CLI.

A config is one JSON document (schema version 1). Every run echoes the
fully resolved config, writes per-seed CSV series plus a merged CSV, and
serializes final estimates as measure JSON. Given the same config, the
CSV outputs are byte-identical across reruns; wall times live only in the
JSON summary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dp import DpReport, EwpConfig, categorical_dp_solve, ewp_random_solve
from .errors import InvalidInputError, malformed_as_invalid, read_json
from .evaluation import ScalarDist, cramer_distance, zeroshot_scalar
from .kernels import KernelSpec, SemimetricSpec, mmd
from .measures import DiscreteMeasure, ReturnDistFn, SupportMap
from .mdp import (
    TabularMDP,
    dsm_mdp,
    horizon_for_tail,
    random_mdp,
    rng_stream,
    rollout_returns,
)
from .projections import project_simplex
from .td import StepSchedule, categorical_td_run, ewp_td_run

CONFIG_VERSION = 1
ALGORITHMS = ("dp-cat", "dp-ewp", "td-cat", "td-ewp")

# Stream ids carving up each seed's randomness by purpose.
_STREAM_MDP = 0
_STREAM_SUPPORT = 1
_STREAM_ALGO = 2
_STREAM_REWARDS = 3
_STREAM_ORACLE = 4


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    resolved: dict

    @property
    def algorithm(self) -> str:
        return self.resolved["algorithm"]

    @property
    def seeds(self) -> list:
        return self.resolved["seeds"]

    def __getitem__(self, key):
        return self.resolved[key]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidInputError(message)


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    _require(isinstance(value, dict), f"{key} must be a JSON object")
    return dict(value)


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill in all defaults.

    Every malformed value raises ``InvalidInputError``, including values
    that fail their int/float conversion.
    """
    with malformed_as_invalid("config value"):
        return _resolve_config(raw)


def _resolve_config(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    version = raw.get("format_version", CONFIG_VERSION)
    _require(version == CONFIG_VERSION, f"unsupported config version {version}")
    algorithm = raw.get("algorithm")
    _require(algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}")

    mdp_cfg = _section(raw, "mdp")
    kind = mdp_cfg.get("kind", "random")
    _require(kind in ("random", "dsm", "file"), f"unknown mdp kind {kind!r}")
    if kind == "random":
        mdp_cfg = {
            "kind": "random",
            "n_states": int(mdp_cfg.get("n_states", 5)),
            "dim": int(mdp_cfg.get("dim", 2)),
            "gamma": float(mdp_cfg.get("gamma", 0.9)),
            "dirichlet_concentration": float(
                mdp_cfg.get("dirichlet_concentration", 1.0)
            ),
            "r_max": float(mdp_cfg.get("r_max", 1.0)),
        }
        r_max = mdp_cfg["r_max"]
        _require(0.0 <= r_max < math.inf, f"mdp r_max must be finite, >= 0: {r_max}")
    elif kind == "dsm":
        mdp_cfg = {
            "kind": "dsm",
            "n_states": int(mdp_cfg.get("n_states", 3)),
            "gamma": float(mdp_cfg.get("gamma", 0.9)),
            "dirichlet_concentration": float(
                mdp_cfg.get("dirichlet_concentration", 1.0)
            ),
        }
    else:
        _require("path" in mdp_cfg, "mdp kind 'file' needs a path")
        mdp_cfg = {"kind": "file", "path": str(mdp_cfg["path"])}

    kernel_cfg = _section(raw, "kernel")
    ref = kernel_cfg.get("reference_point", None)
    _require(
        ref is None or isinstance(ref, list), "reference_point must be null or a list"
    )
    kernel_cfg = {
        "alpha": float(kernel_cfg.get("alpha", 1.0)),
        "reference_point": None if ref is None else [float(v) for v in ref],
    }

    seeds = raw.get("seeds", [0])
    _require(isinstance(seeds, list), "seeds must be a JSON list of integers")
    resolved = {
        "format_version": CONFIG_VERSION,
        "algorithm": algorithm,
        "mdp": mdp_cfg,
        "kernel": kernel_cfg,
        "seeds": [int(s) for s in seeds],
    }
    _require(len(resolved["seeds"]) >= 1, "need at least one seed")
    _require(min(resolved["seeds"]) >= 0, "seeds must be nonnegative integers")

    if algorithm in ("dp-cat", "td-cat"):
        sup = _section(raw, "support")
        sup_kind = sup.get("kind", "grid")
        _require(
            sup_kind in ("grid", "random", "simplex-grid", "file"),
            f"unknown support kind {sup_kind!r}",
        )
        if sup_kind in ("grid", "random"):
            sup = {"kind": sup_kind, "m": int(sup.get("m", 64))}
        elif sup_kind == "simplex-grid":
            sup = {
                "kind": "simplex-grid",
                "resolution": int(sup.get("resolution", 10)),
            }
        else:
            _require("path" in sup, "support kind 'file' needs a path")
            sup = {"kind": "file", "path": str(sup["path"])}
        resolved["support"] = sup

    if algorithm == "dp-cat":
        dp_cfg = _section(raw, "dp")
        resolved["dp"] = {
            "tol": float(dp_cfg.get("tol", 1e-8)),
            "max_iter": int(dp_cfg.get("max_iter", 400)),
            "projection": str(dp_cfg.get("projection", "simplex")),
        }
        _require(
            resolved["dp"]["projection"] in ("simplex", "signed"),
            "dp projection must be 'simplex' or 'signed'",
        )
    if algorithm == "dp-ewp":
        ewp_cfg = _section(raw, "ewp")
        iters = ewp_cfg.get("iterations", None)
        resolved["ewp"] = {
            "particles": int(ewp_cfg.get("particles", 64)),
            "iterations": None if iters is None else int(iters),
        }
    if algorithm in ("td-cat", "td-ewp"):
        td_cfg = _section(raw, "td")
        schedule = _section(td_cfg, "schedule")
        resolved["td"] = {
            "steps": int(td_cfg.get("steps", 10000)),
            "report_interval": int(td_cfg.get("report_interval", 1000)),
            "state_sampler": str(td_cfg.get("state_sampler", "uniform")),
            "schedule": {
                "exponent": float(schedule.get("exponent", 0.6)),
                "scale": float(schedule.get("scale", 1.0)),
            },
            "reference": td_cfg.get("reference", "signed-dp"),
        }
        reference = resolved["td"]["reference"]
        if isinstance(reference, dict):
            _require("path" in reference, "td reference file needs a path")
            resolved["td"]["reference"] = {"path": str(reference["path"])}
        else:
            _require(
                reference in ("signed-dp", None),
                "td reference must be 'signed-dp', null or {\"path\": ...}",
            )
        _require(
            resolved["td"]["report_interval"] >= 1,
            "td report_interval must be a positive integer",
        )
        samplers = ("uniform", "trajectory") if algorithm == "td-cat" else ("uniform",)
        _require(
            resolved["td"]["state_sampler"] in samplers,
            f"{algorithm} state_sampler must be one of {samplers}",
        )
        if algorithm == "td-ewp":
            resolved["td"]["particles"] = int(td_cfg.get("particles", 64))
            if resolved["td"]["reference"] == "signed-dp":
                resolved["td"]["reference"] = None

    if "zeroshot" in raw or algorithm == "dp-cat":
        zs = _section(raw, "zeroshot")
        estimate = _section(zs, "estimate")
        kind = estimate.get("kind", "solve")
        _require(kind in ("solve", "file"), f"unknown estimate kind {kind!r}")
        if kind == "file":
            _require("path" in estimate, "estimate kind 'file' needs a path")
            estimate = {"kind": "file", "path": str(estimate["path"])}
        else:
            estimate = {"kind": "solve"}
        resolved["zeroshot"] = {
            "reward_draws": int(zs.get("reward_draws", 10)),
            "nonnegative_orthant": bool(zs.get("nonnegative_orthant", False)),
            "oracle_samples": int(zs.get("oracle_samples", 10000)),
            "tail_tol": float(zs.get("tail_tol", 1e-3)),
            "estimate": estimate,
        }
        _require(
            resolved["zeroshot"]["reward_draws"] >= 1,
            "zeroshot reward_draws must be a positive integer",
        )
        _require(
            resolved["zeroshot"]["tail_tol"] > 0.0,
            "zeroshot tail_tol must be positive",
        )
    return ExperimentConfig(resolved)


def load_config(path) -> ExperimentConfig:
    return resolve_config(read_json(path, "config"))


def build_kernel(config: ExperimentConfig) -> KernelSpec:
    kc = config["kernel"]
    ref = kc["reference_point"]
    return KernelSpec(
        SemimetricSpec(kc["alpha"]),
        None if ref is None else np.asarray(ref, dtype=np.float64),
    )


def build_mdp(config: ExperimentConfig, seed: int) -> TabularMDP:
    mc = config["mdp"]
    if mc["kind"] == "file":
        return TabularMDP.load(mc["path"])
    rng = rng_stream(seed, _STREAM_MDP)
    if mc["kind"] == "dsm":
        rows = rng.dirichlet(
            np.full(mc["n_states"], mc["dirichlet_concentration"]),
            size=mc["n_states"],
        )
        return dsm_mdp(rows, mc["gamma"])
    return random_mdp(
        mc["n_states"],
        mc["dim"],
        mc["gamma"],
        mc["dirichlet_concentration"],
        rng,
        mc["r_max"],
    )


def build_support(sc: dict, mdp: TabularMDP, seed: int) -> SupportMap:
    """The support map a resolved ``support`` config section describes."""
    if sc["kind"] == "grid":
        return SupportMap.uniform_grid(mdp.n_states, mdp.dim, sc["m"], mdp.v_max)
    if sc["kind"] == "random":
        rng = rng_stream(seed, _STREAM_SUPPORT)
        return SupportMap.random(mdp.n_states, mdp.dim, sc["m"], mdp.v_max, rng)
    if sc["kind"] == "simplex-grid":
        return SupportMap.simplex_grid(
            mdp.n_states, mdp.dim, sc["resolution"], scale=mdp.v_max
        )
    payload = read_json(sc["path"], "support file")
    with malformed_as_invalid("support file"):
        return SupportMap(
            tuple(np.asarray(a, dtype=np.float64) for a in payload["atoms"])
        )


def _signed_reference(mdp, support, spec) -> ReturnDistFn:
    report = categorical_dp_solve(
        mdp, support, spec, tol=1e-10, max_iter=2000, projection="signed"
    )
    return report.final


@dataclass
class SeedResult:
    seed: int
    header: list
    rows: list
    estimate: ReturnDistFn | None
    wall_time_s: float
    summary: dict


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Execute the configured algorithm for one seed."""
    start = time.perf_counter()
    spec = build_kernel(config)
    mdp = build_mdp(config, seed)
    algorithm = config.algorithm
    if algorithm == "dp-cat":
        support = build_support(config["support"], mdp, seed)
        report = categorical_dp_solve(
            mdp,
            support,
            spec,
            tol=config["dp"]["tol"],
            max_iter=config["dp"]["max_iter"],
            projection=config["dp"]["projection"],
        )
        rows = [
            [str(i + 1), _fmt(dist)] for i, dist in enumerate(report.distances)
        ]
        summary = {
            "iterations": report.iterations,
            "converged": report.converged,
            "final_distance": report.distances[-1] if report.distances else None,
        }
        estimate = report.final
        header = ["iteration", "sup_mmd"]
    elif algorithm == "dp-ewp":
        ewp = config["ewp"]
        ewp_config = EwpConfig(ewp["particles"], ewp["iterations"], seed)
        report = ewp_random_solve(
            mdp, ewp_config, spec, rng=rng_stream(seed, _STREAM_ALGO)
        )
        rows = [
            [str(i + 1), _fmt(dist)] for i, dist in enumerate(report.distances)
        ]
        summary = {
            "iterations": report.iterations,
            "converged": True,
            "final_distance": report.distances[-1] if report.distances else None,
        }
        estimate = report.final
        header = ["iteration", "sup_mmd"]
    elif algorithm == "td-cat":
        support = build_support(config["support"], mdp, seed)
        td_cfg = config["td"]
        schedule = StepSchedule(**td_cfg["schedule"])
        reference = None
        if td_cfg["reference"] == "signed-dp":
            reference = _signed_reference(mdp, support, spec)
        elif isinstance(td_cfg["reference"], dict):
            reference = ReturnDistFn.load(td_cfg["reference"]["path"])
        state, report = categorical_td_run(
            mdp,
            support,
            spec,
            schedule,
            td_cfg["steps"],
            rng_stream(seed, _STREAM_ALGO),
            state_sampler=td_cfg["state_sampler"],
            reference=reference,
            report_interval=td_cfg["report_interval"],
        )
        rows = [
            [str(s), _fmt(d), _fmt(a)]
            for s, d, a in zip(report.steps, report.sup_mmd, report.mean_step_size)
        ]
        summary = {
            "steps": state.step,
            "final_distance": report.sup_mmd[-1] if report.sup_mmd else None,
        }
        estimate = state.estimate
        header = ["step", "sup_mmd_to_reference", "mean_step_size"]
    else:  # td-ewp
        td_cfg = config["td"]
        schedule = StepSchedule(**td_cfg["schedule"])
        reference = None
        if isinstance(td_cfg["reference"], dict):
            reference = ReturnDistFn.load(td_cfg["reference"]["path"])
        particles, report = ewp_td_run(
            mdp,
            td_cfg["particles"],
            spec,
            schedule,
            td_cfg["steps"],
            rng_stream(seed, _STREAM_ALGO),
            reference=reference,
            report_interval=td_cfg["report_interval"],
        )
        rows = [
            [str(s), _fmt(d), _fmt(a)]
            for s, d, a in zip(report.steps, report.sup_mmd, report.mean_step_size)
        ]
        summary = {"steps": td_cfg["steps"]}
        m = particles.shape[1]
        estimate = ReturnDistFn(
            tuple(
                DiscreteMeasure(particles[x], np.full(m, 1.0 / m))
                for x in range(mdp.n_states)
            )
        )
        header = ["step", "sup_mmd_to_reference", "mean_step_size"]
    wall = time.perf_counter() - start
    return SeedResult(seed, header, rows, estimate, wall, summary)


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
        estimate_file = None
        if res.estimate is not None:
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
    spec = KernelSpec(SemimetricSpec(alpha))
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
    for measure in estimate:
        if np.min(measure.weights) < -1e-12:
            measures.append(project_simplex(measure, measure.atoms, spec))
        else:
            w = np.maximum(measure.weights, 0.0)
            measures.append(DiscreteMeasure(measure.atoms, w / np.sum(w)))
    return ReturnDistFn(tuple(measures))


def zeroshot_seed(config: ExperimentConfig, seed: int, estimate: ReturnDistFn | None = None):
    """Per-seed zero-shot evaluation rows (one per reward draw).

    The estimate comes from the configured source: solved in-run, loaded
    from a file (a ``{seed}`` placeholder in the path is substituted), or
    passed in directly.
    """
    spec = build_kernel(config)
    mdp = build_mdp(config, seed)
    zs = config["zeroshot"]
    if estimate is None:
        source = zs.get("estimate", {"kind": "solve"})
        if source["kind"] == "file":
            estimate = ReturnDistFn.load(source["path"].format(seed=seed))
        else:
            estimate = run_seed(config, seed).estimate
    probability_estimate = _as_probability_fn(estimate, spec)
    reward_rng = rng_stream(seed, _STREAM_REWARDS)
    oracle_rng = rng_stream(seed, _STREAM_ORACLE)
    horizon = horizon_for_tail(mdp, zs["tail_tol"])
    oracle_samples = [
        rollout_returns(mdp, x, horizon, zs["oracle_samples"], oracle_rng)
        for x in range(mdp.n_states)
    ]
    rows = []
    for draw in range(zs["reward_draws"]):
        w = _sample_reward_vector(reward_rng, mdp.dim, zs["nonnegative_orthant"])
        errors = []
        for x in range(mdp.n_states):
            predicted = zeroshot_scalar(probability_estimate[x], w)
            truth_atoms = oracle_samples[x] @ w
            n = truth_atoms.shape[0]
            truth = ScalarDist(truth_atoms, np.full(n, 1.0 / n))
            errors.append(cramer_distance(predicted, truth))
        rows.append(
            [str(seed), str(draw)]
            + [_fmt(v) for v in w]
            + [_fmt(float(np.mean(errors)))]
        )
    return rows


def zeroshot_run(config: ExperimentConfig, out_dir) -> dict:
    """Zero-shot evaluation across seeds; writes per-draw CSV and a summary."""
    if "zeroshot" not in config.resolved:
        raise InvalidInputError("config carries no zeroshot section")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for s in config.seeds for row in zeroshot_seed(config, s)]
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
    }
    with open(out / "zeroshot_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary
