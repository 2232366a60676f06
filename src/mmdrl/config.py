"""Experiment config schema (version 1) and its resolution.

A config is one JSON document. ``resolve_config`` checks it against one
field table and fills in every default, so a run can echo the fully
resolved config.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import json_integer, json_list, json_real, read_fields, read_json, require

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


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _seed_path(value) -> str:
    """A path whose only format field is ``{seed}``: another field or a
    bad format spec fails here, as ``KeyError('run')`` for ``{run}``."""
    path = str(value)
    path.format(seed=0)
    return path


def _td_reference(value):
    if isinstance(value, dict):
        return read_fields(value, {"path": str}, "td.reference")
    require(value in ("signed-dp", None), f"unknown td.reference {value!r}")
    return value


# The config schema: one field table (see ``errors.read_fields``) per
# section, in the order the resolved config echoes them. A None entry is a
# key only another algorithm reads there.
_GAMMA = (json_real, 0.9, "[0, 1)")
_CONCENTRATION = (json_real, 1.0, "(0, inf)")
# A grid needs 2^d atoms, two per axis: build_support checks m once d is known.
_ATOMS = (json_integer, 64, None)
_MDP = {"kind": {
    "random": {
        "n_states": (json_integer, 5, "[1, inf)"),
        "dim": (json_integer, 2, "[1, inf)"),
        "gamma": _GAMMA,
        "dirichlet_concentration": _CONCENTRATION,
        "r_max": (json_real, 1.0, "[0, inf)"),
    },
    "dsm": {
        "n_states": (json_integer, 3, "[1, inf)"),
        "gamma": _GAMMA,
        "dirichlet_concentration": _CONCENTRATION,
    },
    "file": {"path": str},
}}
_KERNEL = {"alpha": (json_real, 1.0, "(0, 2)")}
_SUPPORT = {"kind": {
    "grid": {"m": _ATOMS},
    "random": {"m": _ATOMS},
    "simplex-grid": {"resolution": (json_integer, 10, "[1, inf)")},
    "file": {"path": str},
}}
_DP = {
    "tol": (json_real, 1e-8, "(0, inf]"),
    "max_iter": (json_integer, 400, "[0, inf)"),
    "projection": (str, "simplex", ("simplex", "signed")),
}
_EWP = {
    "particles": (json_integer, 64, "[1, inf)"),
    "iterations": (json_integer, None, "[0, inf)"),
}
_TD = {
    "steps": (json_integer, 10000, "[0, inf)"),
    "report_interval": (json_integer, 1000, "[1, inf)"),
    "state_sampler": (str, "uniform", None),  # per algorithm, in resolve_config
    "schedule": {
        "exponent": (json_real, 0.6, "(0.5, 1]"),
        "scale": (json_real, 1.0, "(0, inf)"),
    },
    "reference": (_td_reference, "signed-dp", None),
}
_ZEROSHOT = {
    "reward_draws": (json_integer, 10, "[1, inf)"),
    "nonnegative_orthant": (_flag, False, None),
    "oracle_samples": (json_integer, 10000, "[1, inf)"),
    "tail_tol": (json_real, 1e-3, "(0, inf]"),
    "estimate": {"kind": {"solve": {}, "file": {"path": _seed_path}}},
}
# The sections each algorithm reads besides mdp, kernel and seeds; each
# also reads a zeroshot section when its config carries one. A key that no
# algorithm reads is an error; one that another algorithm reads is ignored,
# so one config can serve several algorithms.
_SECTIONS = {
    "dp-cat": {"support": _SUPPORT, "dp": _DP, "zeroshot": _ZEROSHOT},
    "dp-ewp": {"ewp": _EWP},
    "td-cat": {"support": _SUPPORT, "td": {**_TD, "particles": None}},
    "td-ewp": {"td": {**_TD, "particles": (json_integer, 64, "[1, inf)")}},
}
_TOP_LEVEL = ("format_version", "algorithm", "mdp", "kernel", "seeds", "support",
              "dp", "ewp", "td", "zeroshot")
_TABLES = {"mdp": _MDP, "kernel": _KERNEL, "support": _SUPPORT}


def resolve_section(name: str, raw) -> dict:
    """The resolved ``mdp``, ``kernel`` or ``support`` section of a config,
    as ``resolve_config`` gives it: the commands that take these fields as
    flags hold them to the config's rules."""
    return read_fields(raw, _TABLES[name], name)


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill in all defaults.

    Every malformed value raises ``InvalidInputError``, including values
    that fail their int/float conversion, values out of their bounds and
    keys that no algorithm reads.
    """
    require(isinstance(raw, dict), "config must be a JSON object")
    unknown = sorted(set(raw).difference(_TOP_LEVEL))
    require(not unknown, f"config has unknown keys {unknown}")
    version = raw.get("format_version", CONFIG_VERSION)
    require(version == CONFIG_VERSION, f"unsupported config version {version}")
    algorithm = raw.get("algorithm")
    require(algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}")
    resolved = {
        "format_version": CONFIG_VERSION,
        "algorithm": algorithm,
        "mdp": read_fields(raw.get("mdp", {}), _MDP, "mdp"),
        "kernel": read_fields(raw.get("kernel", {}), _KERNEL, "kernel"),
    }
    seeds = raw.get("seeds", [0])
    require(isinstance(seeds, list), "seeds must be a JSON list of integers")
    seeds = resolved["seeds"] = list(json_list(json_integer, "seeds")(seeds))
    require(len(seeds) >= 1, "need at least one seed")
    require(min(seeds) >= 0, "seeds must be nonnegative integers")
    require(len(set(seeds)) == len(seeds), f"seeds must not repeat, got {seeds}")

    sections = dict(_SECTIONS[algorithm])
    if "zeroshot" in raw:
        sections["zeroshot"] = _ZEROSHOT
    for name, table in sections.items():
        resolved[name] = read_fields(raw.get(name, {}), table, name)
    if "td" in resolved:
        td = resolved["td"]
        samplers = ("uniform", "trajectory") if algorithm == "td-cat" else ("uniform",)
        require(td["state_sampler"] in samplers, f"{algorithm} td.state_sampler: {samplers}")
        if algorithm == "td-ewp" and td["reference"] == "signed-dp":
            td["reference"] = None
    return ExperimentConfig(resolved)


def load_config(path) -> ExperimentConfig:
    return resolve_config(read_json(path, "config"))
