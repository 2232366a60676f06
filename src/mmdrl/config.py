"""Experiment config schema (version 1) and its resolution.

A config is one JSON document. ``resolve_config`` checks it against one
field table and fills in every default, so a run can echo the fully
resolved config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, malformed_as_invalid, read_json

CONFIG_VERSION = 1
ALGORITHMS = ("dp-cat", "dp-ewp", "td-cat", "td-ewp")


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


def _within(value, bound) -> bool:
    """Whether ``value`` lies in ``bound``: an interval such as "[0, 1)" or
    "(0, inf)", or a tuple of choices."""
    if isinstance(bound, tuple):
        return value in bound
    lo, hi = map(float, bound[1:-1].split(","))
    return (lo <= value if bound[0] == "[" else lo < value) and (
        value <= hi if bound[-1] == "]" else value < hi
    )


def _real(value) -> float:
    """A JSON number as a float. Booleans, strings and integers beyond the
    float range raise rather than convert."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"number out of the float range: {value!r}") from None


def _integer(value) -> int:
    """A JSON integer, or a number with an integral value such as 1e4.
    Booleans, strings and fractions raise rather than truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _point(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    point = [_real(v) for v in value]
    if not all(map(math.isfinite, point)):
        raise ValueError(f"expected finite numbers, got {value!r}")
    return point


def _seed_path(value) -> str:
    """A path whose only format field is ``{seed}``: another field or a
    bad format spec fails here, as ``KeyError('run')`` for ``{run}``."""
    path = str(value)
    path.format(seed=0)
    return path


def _td_reference(value):
    if isinstance(value, dict):
        return _resolve(value, {"path": _PATH}, "td.reference")
    _require(value in ("signed-dp", None), f"unknown td.reference {value!r}")
    return value


# The config schema. Per section, each field's (cast, default, bound), in
# the order the resolved config echoes them. A field whose default is null
# also takes null, which skips its cast and bound. A nested dict is a
# subsection; a None entry is a key only another algorithm reads there. A
# "kind" entry maps each kind to the fields it reads; the first is the
# default, and a key that any kind reads is known to all of them.
_REQUIRED = object()
_PATH = (str, _REQUIRED, None)
_GAMMA = (_real, 0.9, "[0, 1)")
_CONCENTRATION = (_real, 1.0, "(0, inf)")
# A grid needs 2^d atoms, two per axis: build_support checks m once d is known.
_ATOMS = (_integer, 64, None)
_MDP = {"kind": {
    "random": {
        "n_states": (_integer, 5, "[1, inf)"),
        "dim": (_integer, 2, "[1, inf)"),
        "gamma": _GAMMA,
        "dirichlet_concentration": _CONCENTRATION,
        "r_max": (_real, 1.0, "[0, inf)"),
    },
    "dsm": {
        "n_states": (_integer, 3, "[1, inf)"),
        "gamma": _GAMMA,
        "dirichlet_concentration": _CONCENTRATION,
    },
    "file": {"path": _PATH},
}}
_KERNEL = {
    "alpha": (_real, 1.0, "(0, 2)"),
    "reference_point": (_point, None, None),
}
_SUPPORT = {"kind": {
    "grid": {"m": _ATOMS},
    "random": {"m": _ATOMS},
    "simplex-grid": {"resolution": (_integer, 10, "[1, inf)")},
    "file": {"path": _PATH},
}}
_DP = {
    "tol": (_real, 1e-8, "(0, inf]"),
    "max_iter": (_integer, 400, "[0, inf)"),
    "projection": (str, "simplex", ("simplex", "signed")),
}
_EWP = {
    "particles": (_integer, 64, "[1, inf)"),
    "iterations": (_integer, None, "[0, inf)"),
}
_TD = {
    "steps": (_integer, 10000, "[0, inf)"),
    "report_interval": (_integer, 1000, "[1, inf)"),
    "state_sampler": (str, "uniform", None),  # per algorithm, in _resolve_config
    "schedule": {
        "exponent": (_real, 0.6, "(0.5, 1]"),
        "scale": (_real, 1.0, "(0, inf)"),
    },
    "reference": (_td_reference, "signed-dp", None),
}
_ZEROSHOT = {
    "reward_draws": (_integer, 10, "[1, inf)"),
    "nonnegative_orthant": (_flag, False, None),
    "oracle_samples": (_integer, 10000, "[1, inf)"),
    "tail_tol": (_real, 1e-3, "(0, inf]"),
    "estimate": {"kind": {"solve": {}, "file": {"path": (_seed_path, _REQUIRED, None)}}},
}
# The sections each algorithm reads besides mdp, kernel and seeds; each
# also reads a zeroshot section when its config carries one. A key that no
# algorithm reads is an error; one that another algorithm reads is ignored,
# so one config can serve several algorithms.
_SECTIONS = {
    "dp-cat": {"support": _SUPPORT, "dp": _DP, "zeroshot": _ZEROSHOT},
    "dp-ewp": {"ewp": _EWP},
    "td-cat": {"support": _SUPPORT, "td": {**_TD, "particles": None}},
    "td-ewp": {"td": {**_TD, "particles": (_integer, 64, "[1, inf)")}},
}
_TOP_LEVEL = ("format_version", "algorithm", "mdp", "kernel", "seeds", "support",
              "dp", "ewp", "td", "zeroshot")


def _resolve(raw, table, where: str) -> dict:
    """One config section resolved by its field table."""
    _require(isinstance(raw, dict), f"{where} must be a JSON object")
    kinds = table.get("kind", {})
    unknown = sorted(set(raw).difference(table, *kinds.values()))
    _require(not unknown, f"{where} has unknown keys {unknown}")
    out = {}
    if kinds:
        kind = out["kind"] = raw.get("kind", next(iter(kinds)))
        _require(kind in kinds, f"unknown {where} kind {kind!r}")
        table = kinds[kind]
    for key, field in table.items():
        name = f"{where}.{key}"
        if field is None:
            continue
        if isinstance(field, dict):
            out[key] = _resolve(raw.get(key, {}), field, name)
            continue
        cast, default, bound = field
        _require(key in raw or default is not _REQUIRED, f"{where} needs a {key}")
        value = out[key] = raw.get(key, default)
        if value is None and default is None:
            continue
        with malformed_as_invalid(name):
            value = out[key] = cast(value)
        if bound is not None:
            _require(_within(value, bound), f"{name} must be in {bound}, got {value!r}")
    return out


def resolve_mdp(raw) -> dict:
    """The resolved ``mdp`` section of a config, as ``resolve_config`` gives it."""
    with malformed_as_invalid("mdp"):
        return _resolve(raw, _MDP, "mdp")


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill in all defaults.

    Every malformed value raises ``InvalidInputError``, including values
    that fail their int/float conversion, values out of their bounds and
    keys that no algorithm reads.
    """
    with malformed_as_invalid("config value"):
        return _resolve_config(raw)


def _resolve_config(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = sorted(set(raw).difference(_TOP_LEVEL))
    _require(not unknown, f"config has unknown keys {unknown}")
    version = raw.get("format_version", CONFIG_VERSION)
    _require(version == CONFIG_VERSION, f"unsupported config version {version}")
    algorithm = raw.get("algorithm")
    _require(algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}")
    resolved = {
        "format_version": CONFIG_VERSION,
        "algorithm": algorithm,
        "mdp": _resolve(raw.get("mdp", {}), _MDP, "mdp"),
        "kernel": _resolve(raw.get("kernel", {}), _KERNEL, "kernel"),
    }
    seeds = raw.get("seeds", [0])
    _require(isinstance(seeds, list), "seeds must be a JSON list of integers")
    with malformed_as_invalid("seeds"):
        seeds = resolved["seeds"] = [_integer(s) for s in seeds]
    _require(len(seeds) >= 1, "need at least one seed")
    _require(min(seeds) >= 0, "seeds must be nonnegative integers")
    _require(len(set(seeds)) == len(seeds), f"seeds must not repeat, got {seeds}")

    sections = dict(_SECTIONS[algorithm])
    if "zeroshot" in raw:
        sections["zeroshot"] = _ZEROSHOT
    for name, table in sections.items():
        resolved[name] = _resolve(raw.get(name, {}), table, name)
    if "td" in resolved:
        td = resolved["td"]
        samplers = ("uniform", "trajectory") if algorithm == "td-cat" else ("uniform",)
        _require(
            td["state_sampler"] in samplers, f"{algorithm} td.state_sampler: {samplers}"
        )
        if algorithm == "td-ewp" and td["reference"] == "signed-dp":
            td["reference"] = None
    return ExperimentConfig(resolved)


def load_config(path) -> ExperimentConfig:
    return resolve_config(read_json(path, "config"))
