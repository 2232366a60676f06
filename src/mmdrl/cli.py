"""Command-line entry points.

Commands: run, cert-nonaffine, zeroshot-eval, gen-mdp, mesh-report.
Exit codes: 0 success, 2 configuration error, 3 engine diagnostic error
(out of memory, and a failed write of an output, included).
All CSV floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config, resolve_config, resolve_section
from .errors import (
    ConsistencyError,
    InvalidInputError,
    SolverError,
    SupportBlowupError,
)
from .evaluation import mesh_and_bound
from .experiments import (
    build_mdp,
    build_support,
    nonaffinity_certificate,
    run as run_experiment,
    zeroshot_run,
)
from .kernels import KernelSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdrl",
        description="Tabular multivariate distributional RL experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment per seed")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed list")

    p_cert = sub.add_parser(
        "cert-nonaffine",
        help="print the simplex-projection non-affinity certificate as CSV",
    )
    p_cert.add_argument("--alpha", type=float, default=1.0)
    p_cert.add_argument("--out", default=None, help="optional CSV output path")

    p_zs = sub.add_parser(
        "zeroshot-eval", help="evaluate zero-shot scalar return predictions"
    )
    p_zs.add_argument("--config", required=True)
    p_zs.add_argument("--out", required=True)
    p_zs.add_argument("--seed", type=int, default=None)

    p_gen = sub.add_parser("gen-mdp", help="generate and save a random MDP")
    p_gen.add_argument("--n-states", type=int, default=5)
    p_gen.add_argument("--dim", type=int, default=2)
    p_gen.add_argument("--gamma", type=float, default=0.9)
    p_gen.add_argument("--concentration", type=float, default=1.0)
    p_gen.add_argument("--r-max", type=float, default=1.0)
    p_gen.add_argument("--dsm", action="store_true", help="occupancy cumulants")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_mesh = sub.add_parser(
        "mesh-report", help="mesh and fixed-point error bound for a support"
    )
    p_mesh.add_argument("--mdp", required=True, help="MDP JSON file")
    p_mesh.add_argument(
        "--support-kind", choices=("grid", "random", "simplex-grid"), default="grid"
    )
    p_mesh.add_argument("--support-m", type=int, default=64)
    p_mesh.add_argument("--support-resolution", type=int, default=10)
    p_mesh.add_argument("--alpha", type=float, default=1.0)
    p_mesh.add_argument("--seed", type=int, default=0)
    p_mesh.add_argument("--out", default=None)
    return parser


def _check_out(path: str, directory: bool = False) -> None:
    """Fail on an unusable ``--out`` before any engine runs: a directory is
    created, a file opened for appending (and removed again if it did not
    exist). An ``OSError`` becomes a config error naming the flag."""
    existed = os.path.lexists(path)
    try:
        if directory:
            Path(path).mkdir(parents=True, exist_ok=True)
        else:
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                os.remove(path)
    except OSError as exc:
        raise InvalidInputError(f"--out {path}: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    """The config file, with ``--seed`` (if given) as its only seed."""
    config = load_config(args.config)
    if args.seed is not None:
        config = resolve_config({**config.resolved, "seeds": [args.seed]})
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    _check_out(args.out, directory=True)
    run_experiment(config, args.out)
    return EXIT_OK


def _cmd_cert(args) -> int:
    if args.out:
        _check_out(args.out)
    cert = nonaffinity_certificate(args.alpha)
    lines = ["xi_0,xi_1,projected_mixture,mixture_of_projections"]
    for atom, w1, w2 in zip(
        cert["support"], cert["projected_mixture"], cert["mixture_of_projections"]
    ):
        lines.append(f"{atom[0]:.17g},{atom[1]:.17g},{w1:.17g},{w2:.17g}")
    lines.append(f"# mmd_gap = {cert['mmd_gap']:.17g}")
    text = "\r\n".join(lines) + "\r\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_zeroshot(args) -> int:
    config = _load_config(args)
    _check_out(args.out, directory=True)
    zeroshot_run(config, args.out)
    return EXIT_OK


def _cmd_gen_mdp(args) -> int:
    section = resolve_section("mdp", {
        "kind": "dsm" if args.dsm else "random", "n_states": args.n_states,
        "dim": args.dim, "gamma": args.gamma, "r_max": args.r_max,
        "dirichlet_concentration": args.concentration,
    })
    _check_out(args.out)
    build_mdp(section, args.seed).save(args.out)
    return EXIT_OK


def _cmd_mesh(args) -> int:
    """The flags pass the config's rules for the ``support`` and ``kernel``
    sections, and the MDP file those for a file MDP (its v_max overflow
    check included) before any support is built."""
    support_cfg = resolve_section("support", {
        "kind": args.support_kind, "m": args.support_m, "resolution": args.support_resolution,
    })
    spec = KernelSpec(resolve_section("kernel", {"alpha": args.alpha})["alpha"])
    if args.out:
        _check_out(args.out)
    mdp = build_mdp(resolve_section("mdp", {"kind": "file", "path": args.mdp}), args.seed)
    report = mesh_and_bound(build_support(support_cfg, mdp, args.seed), mdp, spec)
    text = json.dumps(dataclasses.asdict(report), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "cert-nonaffine": _cmd_cert,
        "zeroshot-eval": _cmd_zeroshot,
        "gen-mdp": _cmd_gen_mdp,
        "mesh-report": _cmd_mesh,
    }
    try:
        return handlers[args.command](args)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SupportBlowupError, ConsistencyError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except MemoryError as exc:
        print(f"engine error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except OSError as exc:
        # Inputs are read, and --out checked, as config errors before this;
        # what is left is a failed write, such as a full disk.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
