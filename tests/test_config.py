"""Config resolution: the field table against the hand-written resolver it
replaced, idempotence, and the README schema block."""

import json
import math
import random
import re
from pathlib import Path

import pytest

from mmdrl import InvalidInputError
from mmdrl.errors import malformed_as_invalid
from mmdrl.config import ALGORITHMS, CONFIG_VERSION, ExperimentConfig, resolve_config

README = Path(__file__).resolve().parent.parent / "README.md"


# ---------------------------------------------------------------------------
# Reference: the branch-per-field resolver that the field table replaced,
# kept verbatim. It has no unknown-key check and fewer bounds; every config
# it accepts that breaks neither must resolve identically.


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidInputError(message)


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    _require(isinstance(value, dict), f"{key} must be a JSON object")
    return dict(value)


def reference_resolve_config(raw: dict) -> ExperimentConfig:
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
    kernel_cfg = {"alpha": float(kernel_cfg.get("alpha", 1.0))}

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


# ---------------------------------------------------------------------------
# The generated grid. Per top-level key, the values a config may carry in
# three pools: "ok" (both resolvers accept it where it is read), "bad" (the
# reference rejects it where it is read) and "tight" (the reference accepts
# it, but it is out of the table's bounds or names an unread key). None
# stands for the key being absent.

NAN, INF = float("nan"), float("inf")

VALUES = {
    "format_version": {"ok": [None, 1, 1.0], "bad": [2, "1"], "tight": []},
    "algorithm": {"ok": list(ALGORITHMS), "bad": [None, "dp-quantile"], "tight": []},
    "mdp": {
        "ok": [
            None,
            {},
            {"kind": "random", "n_states": 3, "dim": 1, "gamma": 0.8},
            {"n_states": 4.0, "dim": 2.0, "gamma": 0.5, "dirichlet_concentration": 2, "r_max": 3},
            {"n_states": 2, "dim": 1, "r_max": 0, "path": "ignored.json"},
            {"kind": "dsm", "n_states": 4, "gamma": 0.0, "dim": 7, "r_max": "x"},
            {"kind": "dsm"},
            {"kind": "file", "path": "m.json", "n_states": 9},
        ],
        "bad": [
            [1, 2],
            {"kind": "file"},
            {"kind": "bogus"},
            {"kind": ["random"]},
            {"r_max": INF},
            {"r_max": -1},
            {"n_states": "x"},
        ],
        "tight": [
            {"kind": "dsm", "n_states": 0},
            {"kind": "dsm", "dirichlet_concentration": -1},
            {"dirichlet_concentration": INF},
            {"gamma": 1.5},
            {"dim": 0},
            {"n_state": 3},
            {"n_states": "4"},
            {"dim": 1.5},
            {"gamma": "0.5"},
            {"r_max": True},
            {"kind": "dsm", "dirichlet_concentration": "2"},
        ],
    },
    "kernel": {
        "ok": [None, {}, {"alpha": 0.5}, {"alpha": 1.5}],
        "bad": [{"alpha": "x"}, []],
        "tight": [
            {"alpha": 2.5}, {"alpha": 0}, {"refpoint": None}, {"alpha": "1.5"}, {"alpha": True},
            # The schema no longer has a reference point: no result depended on it.
            {"reference_point": None}, {"alpha": 0.5, "reference_point": [1, 2.0]},
        ],
    },
    "seeds": {
        "ok": [None, [0], [3, 1], [2.0]],
        "bad": [[], [-1], 3, ["a"]],
        "tight": [["2"], [1.7], [True]],
    },
    "support": {
        "ok": [
            None,
            {},
            {"kind": "grid", "m": 9},
            {"kind": "random", "m": 5.0, "resolution": 3},
            {"kind": "simplex-grid", "resolution": 4, "m": 3},
            {"kind": "simplex-grid"},
            {"kind": "random"},
            {"kind": "file", "path": "s.json"},
        ],
        "bad": [{"kind": "file"}, {"kind": "hex"}, {"m": "many"}, [1]],
        "tight": [
            {"kind": "simplex-grid", "resolution": 0},
            {"kind": "grid", "size": 4},
            {"kind": "random", "m": "5"},
            {"kind": "grid", "m": True},
        ],
    },
    "dp": {
        "ok": [None, {}, {"tol": 1e-4, "max_iter": 50, "projection": "signed"}, {"max_iter": 7.0}, {"max_iter": 0}],
        "bad": [{"projection": "affine"}, {"tol": None}, "dp"],
        "tight": [
            {"max_iter": -1}, {"tol": 0}, {"tol": NAN}, {"tolerance": 1},
            {"max_iter": "7"}, {"max_iter": 7.5}, {"tol": True}, {"tol": "1e-4"},
        ],
    },
    "ewp": {
        "ok": [None, {}, {"particles": 8, "iterations": 3}, {"iterations": None}, {"iterations": 2.0}],
        "bad": [{"particles": "x"}, {"iterations": "x"}],
        "tight": [{"particles": 0}, {"iterations": -1}, {"particle": 8}, {"iterations": "2"}],
    },
    "td": {
        "ok": [
            None,
            {},
            {"steps": 100, "report_interval": 10, "reference": None, "particles": 4},
            {"reference": {"path": "r.json"}, "schedule": {"exponent": 0.7, "scale": 2}},
            {"reference": "signed-dp", "state_sampler": "uniform", "steps": 0},
        ],
        "bad": [
            {"report_interval": 0},
            {"reference": "bogus"},
            {"reference": {}},
            {"schedule": [0.6]},
            {"state_sampler": "bogus"},
            {"state_sampler": "trajectory"},  # td-cat only
        ],
        "tight": [
            {"particles": 0},
            {"steps": -1},
            {"schedule": {"exponent": 0.3}},
            {"schedule": {"scale": 0}},
            {"schedule": {"rate": 1}},
            {"reference": {"path": "r.json", "kind": "file"}},
            {"step": 10},
            {"steps": 10.5},
            {"steps": "12"},
            {"report_interval": True},
            {"schedule": {"scale": True}},
            {"schedule": {"exponent": "0.7"}},
        ],
    },
    "zeroshot": {
        "ok": [
            None,
            {},
            {"reward_draws": 3, "oracle_samples": 100, "tail_tol": 0.01, "nonnegative_orthant": True},
            {"estimate": {"kind": "file", "path": "e_{seed}.json"}},
            {"estimate": {"kind": "solve", "path": "x"}},
        ],
        "bad": [
            {"estimate": "solve"},
            {"tail_tol": 0},
            {"reward_draws": 0},
            {"estimate": {"kind": "file"}},
            {"estimate": {"kind": "cached"}},
        ],
        "tight": [
            {"oracle_samples": 0},
            {"nonnegative_orthant": "no"},
            {"nonnegative_orthant": 1},
            {"draws": 3},
            {"reward_draws": 2.5},
            {"tail_tol": True},
            {"tail_tol": "0.01"},
        ],
    },
    "suport": {"ok": [None], "bad": [], "tight": [{"kind": "grid"}]},
}


def generated_configs(n: int, seed: int = 0):
    """``n`` configs, each with its count of tight values: half draw every
    key from its ok pool, the rest draw one or two keys from the bad or
    tight pools."""
    rng = random.Random(seed)
    keys = list(VALUES)
    for _ in range(n):
        picks = {key: ("ok", rng.choice(VALUES[key]["ok"])) for key in keys}
        if rng.random() < 0.5:
            for key in rng.sample(keys, rng.choice((1, 2))):
                pools = [p for p in ("bad", "tight") if VALUES[key][p]]
                if pools:
                    pool = rng.choice(pools)
                    picks[key] = (pool, rng.choice(VALUES[key][pool]))
        raw = {key: value for key, (_, value) in picks.items() if value is not None}
        tight = sum(pool == "tight" for pool, _ in picks.values())
        yield raw, tight


def _outcome(resolve, raw):
    try:
        return resolve(raw).resolved
    except InvalidInputError:
        return None


def test_table_matches_reference_resolver():
    accepted = rejected = 0
    for raw, tight in generated_configs(20_000):
        old = _outcome(reference_resolve_config, raw)
        new = _outcome(resolve_config, raw)
        if old is None:
            assert new is None, raw
            rejected += 1
            continue
        if tight == 0:
            assert new is not None, raw
        if new is not None:
            accepted += 1
            assert json.dumps(new) == json.dumps(old), raw
            assert resolve_config(new).resolved == new
    # The grid exercises both outcomes in bulk.
    assert accepted > 5_000 and rejected > 2_000


def _exotic(algorithm: str) -> dict:
    """A config whose every read section is set away from its defaults."""
    return {
        "algorithm": algorithm,
        "mdp": {"kind": "dsm", "n_states": 2, "gamma": 0.5, "dirichlet_concentration": 3},
        "kernel": {"alpha": 1.5},
        "support": {"kind": "random", "m": 5},
        "dp": {"tol": 1e-3, "max_iter": 0, "projection": "signed"},
        "ewp": {"particles": 8, "iterations": 2},
        "td": {"steps": 7, "reference": {"path": "r.json"}, "particles": 3},
        "zeroshot": {"nonnegative_orthant": True, "estimate": {"kind": "file", "path": "e"}},
        "seeds": [4, 2],
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("make", [lambda a: {"algorithm": a}, _exotic])
def test_resolution_is_idempotent(algorithm, make):
    # cli._load_config re-resolves a resolved config to apply --seed.
    resolved = resolve_config(make(algorithm)).resolved
    assert resolve_config(resolved).resolved == resolved
    assert resolve_config({**resolved, "seeds": [9]}).resolved == {**resolved, "seeds": [9]}


def readme_schema() -> dict:
    text = README.read_text(encoding="utf-8")
    block = text.split("### Config schema (version 1)", 1)[1]
    block = block.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//.*", "", block))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_readme_schema_is_the_defaults(algorithm):
    documented = resolve_config({**readme_schema(), "algorithm": algorithm})
    # The README block carries a zeroshot section, which every algorithm
    # then reads; dp-cat reads one regardless.
    defaults = resolve_config({"algorithm": algorithm, "seeds": [0, 1, 2], "zeroshot": {}})
    assert documented.resolved == defaults.resolved
    if algorithm == "dp-cat":
        plain = resolve_config({"algorithm": algorithm, "seeds": [0, 1, 2]})
        assert documented.resolved == plain.resolved


def test_keys_another_algorithm_reads_are_ignored():
    config = resolve_config(
        {"algorithm": "td-cat", "td": {"particles": 0}, "ewp": {"particles": "x"}}
    )
    assert "particles" not in config["td"] and "ewp" not in config.resolved
    with pytest.raises(InvalidInputError, match=r"td has unknown keys \['particle'\]"):
        resolve_config({"algorithm": "td-ewp", "td": {"particle": 4}})

