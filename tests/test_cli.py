"""Command-line interface: exit codes, determinism, output formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmdrl import ReturnDistFn, SolverError, TabularMDP, dsm_mdp, random_mdp, rng_stream
from mmdrl.cli import main
from mmdrl.config import load_config, resolve_config
from mmdrl.experiments import nonaffinity_certificate, run_seed


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def point_masses(n_states, dim, at=0.0):
    """Return-distribution JSON of ``n_states`` point masses at ``at`` in
    every coordinate."""
    point = {"dim": dim, "atoms": [[at] * dim], "weights": [1.0]}
    return {"n_states": n_states, "measures": [point] * n_states}


def with_string_weights(document):
    """A return-distribution document whose weights are the string "1"."""
    point = {**document["measures"][0], "weights": ["1"]}
    return {**document, "measures": [point] * document["n_states"]}


# Documents with one malformed field or one unknown key, loaded as an MDP
# file, a support file, a zero-shot estimate or a TD reference, and the
# field or key an error must name. Each used to load (exit 0).
MALFORMED_DOCUMENTS = {
    "estimate-weights-string": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_weights_string.json"}}},
        "weights",
    ),
    "estimate-n-states-mismatch": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_n_states_3.json"}}},
        "n_states",
    ),
    "reference-weights-string": (
        {"algorithm": "td-cat", "mdp": {"kind": "dsm"},
         "support": {"kind": "simplex-grid", "resolution": 2},
         "td": {"steps": 10, "report_interval": 5,
                "reference": {"path": "reference_weights_string.json"}}},
        "weights",
    ),
    "estimate-dim-true": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_dim_true.json"}}},
        "measure.dim",
    ),
    # The weights' extra level of lists used to be flattened away.
    "estimate-weights-nested": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_weights_nested.json"}}},
        "weights",
    ),
    "estimate-unknown-key": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_unknown_key.json"}}},
        "label",
    ),
    # Exited 2 before too, but named only measure.weights, not the state.
    "estimate-state-1-weights-string": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_state_1_weights_string.json"}}},
        "measures[1]",
    ),
    # Named state 0 and no input: the projector checked the atoms.
    "estimate-state-1-close-signed-atoms": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "ewp": {"particles": 4, "iterations": 2},
         "zeroshot": {"oracle_samples": 10,
                      "estimate": {"kind": "file", "path": "estimate_close_signed_atoms.json"}}},
        "zeroshot.estimate atoms at state 1",
    ),
    "mdp-file-unknown-key": (
        {"algorithm": "dp-ewp", "mdp": {"kind": "file", "path": "mdp_unknown_key.json"},
         "ewp": {"particles": 4, "iterations": 2}},
        "discount",
    ),
    "support-file-unknown-key": (
        {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "support": {"kind": "file", "path": "support_unknown_key.json"}},
        "points",
    ),
    # This one exited 2 before too: a support file's errors name the state.
    "support-file-state-1-string": (
        {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
         "support": {"kind": "file", "path": "support_state_1_string.json"}},
        "atoms[1]",
    ),
    **{
        f"mdp-file-{name}": (
            {"algorithm": "dp-ewp", "mdp": {"kind": "file", "path": f"mdp_{field}_{name}.json"},
             "ewp": {"particles": 4, "iterations": 2}},
            f"MDP.{field}",
        )
        for name, field in [("gamma-string", "gamma"), ("r-max-true", "r_max"),
                            ("d-true", "d"), ("n-states-true", "n_states"),
                            ("transition-string", "transition")]
    },
}

# TD references that do not fit the 3-state, d = 3 DSM MDP.
MISMATCHED_REFERENCES = [
    {
        "algorithm": "td-cat",
        "mdp": {"kind": "dsm"},
        "support": {"kind": "simplex-grid", "resolution": 2},
        "td": {"steps": 10, "report_interval": 5, "reference": {"path": "reference_d2.json"}},
    },
    {
        "algorithm": "td-cat",
        "mdp": {"kind": "dsm"},
        "support": {"kind": "simplex-grid", "resolution": 2},
        "td": {"steps": 10, "report_interval": 5, "reference": {"path": "reference_2_states.json"}},
    },
    {
        "algorithm": "td-ewp",
        "mdp": {"kind": "dsm"},
        "td": {
            "steps": 10, "report_interval": 5, "particles": 2,
            "reference": {"path": "reference_2_states.json"},
        },
    },
]


def write_malformed_files(tmp_path):
    """Input files that are not JSON, or JSON missing what a loader needs."""
    mdp = {"n_states": 1, "d": 1, "gamma": 0.5, "r_max": 1.0, "cumulants": [[0.5]]}
    valid_mdp = {**mdp, "transition": [[1.0]]}
    files = {
        "not_json.json": "{not json",
        "list.json": "[1, 2]",
        "mdp_no_transition.json": json.dumps(mdp),
        "mdp_text_transition.json": json.dumps({**mdp, "transition": "abc"}),
        "mdp_nan_transition.json": json.dumps({**mdp, "transition": [[float("nan")]]}),
        "no_measures.json": json.dumps({"n_states": 5}),
        "reference_d2.json": json.dumps(point_masses(3, 2)),
        "reference_2_states.json": json.dumps(point_masses(2, 3)),
        "reference_1e308.json": json.dumps(point_masses(3, 3, -1e308)),
        "estimate_1e308.json": json.dumps(point_masses(2, 1, 1e308)),
        "estimate_weights_string.json": json.dumps(with_string_weights(point_masses(2, 1))),
        "estimate_n_states_3.json": json.dumps({**point_masses(2, 1), "n_states": 3}),
        "estimate_state_1_weights_string.json": json.dumps({
            **point_masses(2, 1),
            "measures": [point_masses(1, 1)["measures"][0],
                         with_string_weights(point_masses(1, 1))["measures"][0]],
        }),
        "reference_weights_string.json": json.dumps(with_string_weights(point_masses(3, 3))),
        "support_nan.json": json.dumps({"atoms": [[0.0, float("nan"), 1.0], [0.0, 1.0]]}),
        "support_nested.json": json.dumps({"atoms": [[[[0.0]]], [[[1.0]]]]}),
        "support_zero_dim.json": json.dumps({"atoms": [[[]], [[]]]}),
        "support_no_states.json": json.dumps({"atoms": []}),
        "support_string.json": json.dumps({"atoms": [[["0"], ["1"]], [[0], [1]]]}),
        "estimate_dim_true.json": json.dumps(
            {"n_states": 2, "measures": [{"dim": True, "atoms": [[0.0]], "weights": [1.0]}] * 2}
        ),
        "mdp_gamma_gamma-string.json": json.dumps({**valid_mdp, "gamma": "0.5"}),
        "mdp_r_max_r-max-true.json": json.dumps({**valid_mdp, "r_max": True}),
        "mdp_d_d-true.json": json.dumps({**valid_mdp, "d": True}),
        "mdp_n_states_n-states-true.json": json.dumps({**valid_mdp, "n_states": True}),
        "mdp_transition_transition-string.json": json.dumps({**valid_mdp, "transition": [["1"]]}),
        "mdp_unknown_key.json": json.dumps({**valid_mdp, "discount": 0.5}),
        "support_unknown_key.json": json.dumps({"atoms": [[0.0, 1.0]] * 2, "points": 2}),
        "support_state_1_string.json": json.dumps({"atoms": [[0.0, 1.0], [["0"], ["1"]]]}),
        "estimate_weights_nested.json": json.dumps(
            {"n_states": 2, "measures": [{"dim": 1, "atoms": [[0.0], [1.0]],
                                          "weights": [[0.5], [0.5]]}] * 2}
        ),
        "estimate_unknown_key.json": json.dumps({**point_masses(2, 1), "label": "x"}),
        "estimate_close_signed_atoms.json": json.dumps({
            **point_masses(2, 1),
            "measures": [point_masses(1, 1)["measures"][0],
                         {"dim": 1, "atoms": [[0.25], [0.25 + 1e-10], [0.5]],
                          "weights": [-0.5, 0.5, 1.0]}],
        }),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)


def run_then_zeroshot(tmp_path, monkeypatch, payload):
    """Exit code of ``run`` on ``payload`` among the malformed files, then,
    if that succeeds and the payload has a zeroshot section, of
    ``zeroshot-eval``."""
    write_malformed_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, payload)
    code = main(["run", "--config", config, "--out", str(tmp_path / "o")])
    if code == 0 and "zeroshot" in payload:
        code = main(["zeroshot-eval", "--config", config, "--out", str(tmp_path / "z")])
    return code


# Valid input documents for the exit-code fuzz, sized so that any run on
# them takes a fraction of a second. The configs read the files by name.
FUZZ_FILES = {
    "mdp.json": {
        "n_states": 2, "d": 2, "gamma": 0.8, "r_max": 1.0,
        "transition": [[0.5, 0.5], [0.25, 0.75]],
        "cumulants": [[0.5, 0.25], [0.0, 1.0]],
    },
    "support.json": {"atoms": [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]] * 2},
    "estimate.json": {
        "n_states": 2,
        "measures": [{"dim": 2, "atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]}] * 2,
    },
}
FUZZ_ZEROSHOT = {"reward_draws": 2, "oracle_samples": 20, "tail_tol": 0.1}
FUZZ_CONFIGS = [
    {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "mdp.json"},
     "support": {"kind": "file", "path": "support.json"},
     "dp": {"tol": 1e-6, "max_iter": 30, "projection": "signed"}, "kernel": {"alpha": 1.5},
     "seeds": [0],
     "zeroshot": {**FUZZ_ZEROSHOT, "estimate": {"kind": "file", "path": "estimate.json"}}},
    {"format_version": 1, "algorithm": "dp-cat",
     "mdp": {"kind": "random", "n_states": 2, "dim": 1, "gamma": 0.5, "r_max": 1.0,
             "dirichlet_concentration": 1.0},
     "support": {"kind": "grid", "m": 4}, "dp": {"tol": 1e-6, "max_iter": 30},
     "seeds": [0, 1], "zeroshot": {**FUZZ_ZEROSHOT, "nonnegative_orthant": True}},
    {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.5},
     "ewp": {"particles": 4, "iterations": 2},
     "kernel": {"alpha": 1.0}, "zeroshot": FUZZ_ZEROSHOT},
    {"algorithm": "td-cat", "mdp": {"kind": "dsm", "n_states": 2, "gamma": 0.5},
     "support": {"kind": "simplex-grid", "resolution": 2},
     "td": {"steps": 20, "report_interval": 10, "state_sampler": "trajectory",
            "schedule": {"exponent": 0.6, "scale": 1.0}, "reference": "signed-dp"}},
    {"algorithm": "td-ewp", "mdp": {"kind": "file", "path": "mdp.json"},
     "td": {"steps": 20, "report_interval": 10, "particles": 4,
            "reference": {"path": "estimate.json"}}},
]
# Counts whose huge value asks for a long loop, not an impossible array:
# the fuzz leaves them below 1e308.
FUZZ_LOOP_COUNTS = {"steps", "iterations", "max_iter", "reward_draws"}
FUZZ_MUTATIONS = (
    "string", "boolean", "object", "nan", "inf", "-inf", "1e308", "-1e308",
    "negative", "miscount", "empty-list", "nested", "drop", "add-key",
)
FUZZ_NUMERIC = {"nan", "inf", "-inf", "1e308", "-1e308", "negative"}
# Each command's exit code for each kind of --out target on valid inputs:
# run and zeroshot-eval write into a directory, gen-mdp and mesh-report
# (over)write a file.
OUT_CODES = {
    "run": {"new": 0, "file": 2, "below-file": 2, "directory": 0},
    "zeroshot-eval": {"new": 0, "file": 2, "below-file": 2, "directory": 0},
    "gen-mdp": {"new": 0, "file": 0, "below-file": 2, "directory": 2},
    "mesh-report": {"new": 0, "file": 0, "below-file": 2, "directory": 2},
}


def fuzz_nodes(document, path=()):
    """Paths of every node below the root of a JSON document."""
    children = document.items() if isinstance(document, dict) else enumerate(document)
    for key, value in children:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from fuzz_nodes(value, path + (key,))


def mutated(document, path, mutation):
    """A deep copy of ``document`` with the node at ``path`` changed."""
    out = json.loads(json.dumps(document))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if mutation == "drop":
        del parent[key]
    elif mutation == "add-key" and isinstance(value, dict):
        value["extra"] = 1
    elif mutation == "add-key":
        if isinstance(parent, dict):
            parent["extra"] = 1
        else:
            parent.append(value)
    elif mutation == "negative":
        parent[key] = -value if isinstance(value, (int, float)) and not isinstance(value, bool) else -1
    elif mutation == "miscount":
        # A count one past the length of the list it counts, and so on.
        parent[key] = value + 1
    else:
        parent[key] = {
            "string": "x", "boolean": True, "object": {}, "nan": float("nan"),
            "inf": float("inf"), "-inf": float("-inf"), "1e308": 1e308, "-1e308": -1e308,
            "empty-list": [], "nested": [value],
        }[mutation]
    return out


def fuzz_leaf(document, path):
    """The node of ``document`` at ``path``."""
    for key in path:
        document = document[key]
    return document


@st.composite
def fuzz_cases(draw):
    """The config and the files, with one node of the config (half the
    cases) or of one file mutated, and the kind of --out target. A numeric
    mutation replaces a number, a miscount an integer."""
    config = draw(st.sampled_from(FUZZ_CONFIGS))
    documents = {"config.json": config, **FUZZ_FILES}
    name = draw(st.one_of(st.just("config.json"), st.sampled_from(sorted(FUZZ_FILES))))
    mutation = draw(st.sampled_from(FUZZ_MUTATIONS))
    paths = list(fuzz_nodes(documents[name]))
    if mutation in FUZZ_NUMERIC:
        paths = [p for p in paths if type(fuzz_leaf(documents[name], p)) in (int, float)]
    if mutation == "miscount":
        paths = [p for p in paths if type(fuzz_leaf(documents[name], p)) is int]
    assume(paths)
    path = draw(st.sampled_from(paths))
    assume(not (mutation == "1e308" and path[-1] in FUZZ_LOOP_COUNTS))
    documents[name] = mutated(documents[name], path, mutation)
    return documents, draw(st.sampled_from(sorted(OUT_CODES["run"])))


def out_target(directory, kind, command):
    """An --out path of ``kind`` in ``directory`` for ``command``: a new
    path, an existing file, a path below that file or an existing
    directory."""
    (directory / "taken").touch()
    (directory / "dir").mkdir(exist_ok=True)
    return {"new": f"new-{command}", "file": "taken", "below-file": "taken/out", "directory": "dir"}[kind]


def exit_codes(directory, documents, out="new"):
    """Exit codes of ``run``, ``zeroshot-eval`` (if the config has a zeroshot
    section), ``gen-mdp`` and ``mesh-report`` (on mdp.json) on the documents
    written into ``directory``, each with an --out target of kind ``out``;
    and what they wrote to stderr."""
    for name, document in documents.items():
        (directory / name).write_text(json.dumps(document))
    commands = {
        "run": ["--config", "config.json"],
        "zeroshot-eval": ["--config", "config.json"],
        "gen-mdp": ["--n-states", "2", "--dim", "1"],
        "mesh-report": ["--mdp", "mdp.json", "--support-m", "4"],
    }
    if "zeroshot" not in documents["config.json"]:
        del commands["zeroshot-eval"]
    cwd, stderr, codes = os.getcwd(), io.StringIO(), {}
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            for command, args in commands.items():
                target = out_target(directory, out, command)
                codes[command] = main([command, *args, "--out", target])
    finally:
        os.chdir(cwd)
    return codes, stderr.getvalue()


def dp_cat_config(tmp_path, **overrides):
    payload = {
        "format_version": 1,
        "algorithm": "dp-cat",
        "mdp": {"kind": "random", "n_states": 3, "dim": 1, "gamma": 0.8},
        "support": {"kind": "grid", "m": 8},
        "dp": {"tol": 1e-6, "max_iter": 200},
        "seeds": [0, 1],
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestGenMdp:
    def test_writes_loadable_mdp(self, tmp_path):
        out = tmp_path / "mdp.json"
        code = main(
            [
                "gen-mdp", "--n-states", "4", "--dim", "2", "--gamma", "0.9",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        mdp = TabularMDP.load(out)
        assert mdp.n_states == 4
        assert mdp.dim == 2

    def test_dsm_flag(self, tmp_path):
        out = tmp_path / "dsm.json"
        assert main(["gen-mdp", "--n-states", "3", "--gamma", "0.9", "--dsm", "--out", str(out)]) == 0
        mdp = TabularMDP.load(out)
        np.testing.assert_allclose(mdp.cumulants, 0.1 * np.eye(3), atol=1e-12)

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-mdp", "--seed", "5", "--out", str(a)])
        main(["gen-mdp", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dsm", [False, True])
    def test_same_bytes_as_direct_build(self, tmp_path, dsm):
        # The body gen-mdp had before it went through the config's mdp
        # section and build_mdp, kept as the reference.
        n_states, dim, gamma, concentration, r_max, seed = 4, 3, 0.7, 0.5, 2.0, 11
        rng = rng_stream(seed)
        if dsm:
            rows = rng.dirichlet(np.full(n_states, concentration), size=n_states)
            expected = dsm_mdp(rows, gamma)
        else:
            expected = random_mdp(n_states, dim, gamma, concentration, rng, r_max)
        expected.save(tmp_path / "expected.json")
        out = tmp_path / "mdp.json"
        args = [
            "gen-mdp", "--n-states", "4", "--dim", "3", "--gamma", "0.7",
            "--concentration", "0.5", "--r-max", "2", "--seed", "11", "--out", str(out),
        ]
        assert main(args + (["--dsm"] if dsm else [])) == 0
        assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["--dsm", "--n-states", "0"],
            ["--n-states", "0"],
            ["--dim", "0"],
            ["--concentration", "-1"],
            ["--seed", "-1"],
        ],
    )
    def test_invalid_arguments_exit_2(self, tmp_path, args):
        out = tmp_path / "mdp.json"
        assert main(["gen-mdp", *args, "--out", str(out)]) == 2
        assert not out.exists()


class TestRunCommand:
    def test_dp_cat_end_to_end(self, tmp_path):
        config = dp_cat_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["format_version"] == 1
        assert summary["config"]["algorithm"] == "dp-cat"
        assert {p["seed"] for p in summary["per_seed"]} == {0, 1}
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "seed,iteration,sup_mmd"
        assert (out / "seed_0" / "estimate.json").exists()
        estimate = ReturnDistFn.load(out / "seed_0" / "estimate.json")
        assert estimate.n_states == 3

    def test_byte_identical_reruns(self, tmp_path):
        config = dp_cat_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", config, "--out", str(out1)])
        main(["run", "--config", config, "--out", str(out2)])
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (
            (out1 / "seed_0" / "estimate.json").read_bytes()
            == (out2 / "seed_0" / "estimate.json").read_bytes()
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {"algorithm": "td-cat", "mdp": {"kind": "dsm"},
             "support": {"kind": "simplex-grid", "resolution": 10},
             "td": {"steps": 2000, "report_interval": 100, "reference": "signed-dp"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 5, "dim": 2},
             "support": {"kind": "grid", "m": 64}, "dp": {"tol": 1e-3, "max_iter": 250}},
            {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 5, "dim": 2},
             "ewp": {"particles": 64}},
            {"algorithm": "td-ewp", "mdp": {"kind": "random", "n_states": 5, "dim": 2},
             "td": {"steps": 2000, "report_interval": 500, "particles": 16}},
            {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 5, "dim": 2},
             "support": {"kind": "grid", "m": 64}, "dp": {"tol": 1e-3, "max_iter": 250},
             "zeroshot": {"reward_draws": 3, "oracle_samples": 2000}},
        ],
        ids=["td-cat", "dp-cat", "dp-ewp", "td-ewp", "zeroshot-eval"],
    )
    def test_outputs_independent_of_blas_thread_count(self, tmp_path, payload):
        # Each run is a fresh process: OpenBLAS reads its thread count once.
        config = write_config(tmp_path, {"format_version": 1, **payload, "seeds": [0, 1]})
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if "zeroshot" in payload:
            command, names = "zeroshot-eval", ("zeroshot.csv",)
        else:
            command, names = "run", ("series.csv", "seed_0/estimate.json", "seed_1/estimate.json")
        outs = [tmp_path / "threads_1", tmp_path / "threads_2"]
        for threads, out in zip("12", outs):
            subprocess.run(
                [sys.executable, "-c", "import sys; from mmdrl.cli import main; sys.exit(main())",
                 command, "--config", config, "--out", str(out)],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                check=True, capture_output=True, timeout=300,
            )
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        config = dp_cat_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out), "--seed", "7"])
        summary = json.loads((out / "summary.json").read_text())
        assert [p["seed"] for p in summary["per_seed"]] == [7]

    @pytest.mark.parametrize("command", ["run", "zeroshot-eval"])
    def test_negative_seed_flag_exits_2(self, tmp_path, command):
        config = dp_cat_config(tmp_path)
        out = str(tmp_path / "out")
        assert main([command, "--config", config, "--out", out, "--seed", "-1"]) == 2

    @pytest.mark.parametrize(
        "algorithm, sampler, code",
        [
            ("td-cat", "trajectory", 0),
            ("td-cat", "bogus", 2),
            ("td-ewp", "uniform", 0),
            ("td-ewp", "trajectory", 2),
            ("td-ewp", "bogus", 2),
        ],
    )
    def test_state_sampler_validated(self, tmp_path, algorithm, sampler, code):
        config = write_config(
            tmp_path,
            {
                "algorithm": algorithm,
                "mdp": {"kind": "random", "n_states": 2, "dim": 1, "gamma": 0.8},
                "support": {"kind": "grid", "m": 4},
                "td": {
                    "steps": 20,
                    "report_interval": 10,
                    "particles": 4,
                    "state_sampler": sampler,
                    "reference": None,
                },
                "seeds": [0],
            },
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == code

    def test_td_cat_series_columns(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "algorithm": "td-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 1, "gamma": 0.8},
                "support": {"kind": "grid", "m": 6},
                "td": {"steps": 300, "report_interval": 100},
                "seeds": [0],
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "seed,step,sup_mmd_to_reference,mean_step_size"
        assert len(series) == 4
        # The signed-DP reference solve is timed on its own.
        per_seed = json.loads((out / "summary.json").read_text())["per_seed"][0]
        assert 0.0 < per_seed["reference_s"] < per_seed["wall_time_s"]

    @pytest.mark.parametrize("off_mass", [False, True])
    def test_td_cat_summary_omits_renormalizations(self, tmp_path, monkeypatch, off_mass):
        # Nothing renormalises categorical TD weights any more, so the
        # summary has no count of it, from a mass-1 start or from one of
        # mass 1 + 5e-10, whose error each visit scales by (1 - alpha).
        import mmdrl.experiments as experiments
        from mmdrl import DiscreteMeasure, categorical_td_run, init_td_state
        from mmdrl.td import TdState

        def run_from_off_mass_init(mdp, support, spec, *args, **kwargs):
            state = init_td_state(mdp, support, spec)
            init = TdState(
                ReturnDistFn(tuple(
                    DiscreteMeasure(m.atoms, m.weights * (1.0 + 5e-10))
                    for m in state.estimate
                )),
                state.visit_counts,
            )
            return categorical_td_run(mdp, support, spec, *args, init=init, **kwargs)

        if off_mass:
            monkeypatch.setattr(experiments, "categorical_td_run", run_from_off_mass_init)
        config = write_config(
            tmp_path,
            {
                "algorithm": "td-cat",
                "mdp": {"kind": "random", "n_states": 3, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "td": {"steps": 300, "report_interval": 100, "schedule": {"scale": 0.5}},
                "seeds": [0],
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        per_seed = json.loads((out / "summary.json").read_text())["per_seed"][0]
        assert per_seed["steps"] == 300
        assert "renormalizations" not in per_seed

    @staticmethod
    def td_cat_scale_config(tmp_path, scale, seed):
        return write_config(tmp_path, {
            "algorithm": "td-cat",
            "mdp": {"kind": "random", "n_states": 5, "dim": 1},
            "support": {"kind": "grid", "m": 16},
            "td": {"steps": 20_000, "schedule": {"scale": scale}},
            "seeds": [seed],
        }, name=f"scale_{scale}_{seed}.json")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_td_cat_steps_above_two_converge(self, tmp_path, seed):
        # First steps of 20 make the weights grow for a while. A mass check
        # used to divide them by a near-zero mass here, which made them
        # non-finite (a RuntimeWarning, then exit 2).
        config = self.td_cat_scale_config(tmp_path, 20.0, seed)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        rows = (out / "series.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(","))
        per_seed = json.loads((out / "summary.json").read_text())["per_seed"][0]
        assert per_seed["final_distance"] < 0.1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_td_cat_run_exits_3(self, tmp_path, capsys):
        # Steps of 100 overflow the weights (numpy warns of the overflow);
        # the config is valid, so that is an engine error, not a config one.
        config = self.td_cat_scale_config(tmp_path, 100.0, 0)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "engine error" in err and "td.schedule.scale" in err

    def test_dsm_simplex_grid_converges(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "dsm", "n_states": 3, "gamma": 0.9},
                "support": {"kind": "simplex-grid", "resolution": 5},
                "dp": {"tol": 1e-6, "max_iter": 300},
                "seeds": [0],
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_seed"][0]["converged"] is True

    @pytest.mark.parametrize(
        "payload, count",
        [
            ({"algorithm": "dp-cat", "dp": {"max_iter": 0}}, "iterations"),
            ({"algorithm": "dp-ewp", "ewp": {"particles": 4, "iterations": 0}}, "iterations"),
            ({"algorithm": "td-cat", "td": {"steps": 0}}, "steps"),
        ],
    )
    def test_no_sweep_reports_null_distance(self, tmp_path, payload, count):
        payload = {
            "mdp": {"kind": "random", "n_states": 2, "dim": 1},
            "support": {"kind": "grid", "m": 4},
            "seeds": [0],
            **payload,
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        per_seed = json.loads((out / "summary.json").read_text())["per_seed"][0]
        assert per_seed[count] == 0
        assert per_seed["final_distance"] is None

    @pytest.mark.parametrize("algorithm", ["td-cat", "td-ewp"])
    def test_td_summary_is_strict_json(self, tmp_path, algorithm):
        # With no reference the series holds nan, which summary.json
        # reports as a null final_distance rather than a NaN token.
        payload = {
            "algorithm": algorithm,
            "mdp": {"kind": "random", "n_states": 2, "dim": 1, "gamma": 0.8},
            "support": {"kind": "grid", "m": 4},
            "td": {"steps": 40, "report_interval": 20, "particles": 4, "reference": None},
            "seeds": [0],
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        per_seed = json.loads(text, parse_constant=pytest.fail)["per_seed"][0]
        assert per_seed["final_distance"] is None
        assert per_seed["steps"] == 40
        assert "nan" in (out / "series.csv").read_text()

    def test_td_ewp_reports_final_distance(self, tmp_path):
        mdp = {"kind": "random", "n_states": 2, "dim": 1, "gamma": 0.8}
        solved = tmp_path / "solved"
        dp = {"algorithm": "dp-ewp", "mdp": mdp, "ewp": {"particles": 8}, "seeds": [0]}
        assert main(["run", "--config", write_config(tmp_path, dp, "dp.json"), "--out", str(solved)]) == 0
        td = {
            "algorithm": "td-ewp",
            "mdp": mdp,
            "td": {
                "steps": 40,
                "report_interval": 20,
                "particles": 4,
                "reference": {"path": str(solved / "seed_0" / "estimate.json")},
            },
            "seeds": [0],
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, td, "td.json"), "--out", str(out)]) == 0
        per_seed = json.loads((out / "summary.json").read_text())["per_seed"][0]
        last_row = (out / "series.csv").read_text().splitlines()[-1].split(",")
        assert per_seed["final_distance"] == float(last_row[2])

    def test_dp_ewp_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-ewp",
                "mdp": {"kind": "random", "n_states": 3, "dim": 2, "gamma": 0.8},
                "ewp": {"particles": 16},
                "seeds": [0],
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_algorithm_exits_2(self, tmp_path):
        config = write_config(tmp_path, {"algorithm": "dp-quantile", "seeds": [0]})
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "algorithm": "td-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                "support": {"kind": "grid", "m": 4},
                "td": {"steps": 10, "report_interval": 0},
            },
            {
                "algorithm": "td-ewp",
                "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                "td": {"steps": 10, "report_interval": 0, "particles": 4},
            },
            {"algorithm": "dp-cat", "seeds": ["a"]},
            {"algorithm": "dp-cat", "seeds": 3},
            {"algorithm": "dp-cat", "mdp": [1, 2]},
            {"algorithm": "dp-cat", "support": {"kind": "grid", "m": "many"}},
            {"algorithm": "dp-cat", "dp": {"tol": None}},
            {"algorithm": "td-cat", "td": {"schedule": [0.6]}},
            {"algorithm": "dp-cat", "zeroshot": {"estimate": "solve"}},
            {"algorithm": "dp-cat", "kernel": {"reference_point": "abc"}},
            {"algorithm": "td-cat", "td": {"reference": {}}},
            {"algorithm": "td-cat", "td": {"reference": "bogus"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "not_json.json"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "list.json"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "mdp_no_transition.json"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "mdp_text_transition.json"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "mdp_nan_transition.json"}},
            {"algorithm": "dp-cat", "mdp": {"kind": "file", "path": "."}},
            {"algorithm": "dp-cat", "support": {"kind": "file", "path": "not_json.json"}},
            {"algorithm": "dp-cat", "support": {"kind": "file", "path": "list.json"}},
            {"algorithm": "td-cat", "td": {"reference": {"path": "not_json.json"}}},
            {"algorithm": "td-cat", "td": {"reference": {"path": "list.json"}}},
            {"algorithm": "td-cat", "td": {"reference": {"path": "no_measures.json"}}},
            {"algorithm": "dp-cat", "support": {"kind": "grid", "m": 0}},
            {"algorithm": "dp-cat", "support": {"kind": "random", "m": -3}},
            {"algorithm": "dp-cat", "zeroshot": {"tail_tol": 0}},
            {"algorithm": "dp-cat", "zeroshot": {"tail_tol": -1}},
            {"algorithm": "dp-cat", "zeroshot": {"reward_draws": 0}},
            {"algorithm": "dp-cat", "mdp": {"r_max": float("inf")}},
            {"algorithm": "dp-cat", "mdp": {"r_max": float("nan")}},
            {"algorithm": "dp-cat", "seeds": [-1]},
            {"algorithm": "dp-cat", "dp": {"tol": float("nan")}},
            *MISMATCHED_REFERENCES,
            # Float fields take JSON numbers only; these used to run (exit 0).
            pytest.param({"algorithm": "dp-cat", "dp": {"tol": True}}, id="dp-tol-true"),
            pytest.param({"algorithm": "dp-ewp", "kernel": {"alpha": True}}, id="kernel-alpha-true"),
            pytest.param({"algorithm": "dp-ewp", "kernel": {"alpha": "0.5"}}, id="kernel-alpha-string"),
            pytest.param(
                {"algorithm": "dp-ewp", "kernel": {"reference_point": [True, 0]}},
                id="kernel-reference-point-true",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "gamma": "0.5"}},
                id="mdp-gamma-string",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "r_max": False}},
                id="mdp-r-max-false",
            ),
            pytest.param(
                {"algorithm": "td-ewp", "td": {"steps": 10, "particles": 2,
                                               "schedule": {"scale": True}}},
                id="td-schedule-scale-true",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "zeroshot": {"tail_tol": True}},
                id="zeroshot-tail-tol-true",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "gamma": 10**400}},
                id="mdp-gamma-beyond-float",
            ),
            # Exited 3 (a singular simplex system) before SupportMap
            # checked that its atoms are finite.
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "file", "path": "support_nan.json"}},
                id="support-nan-atom",
            ),
            # Points whose squared distances overflow; each used to exit 0
            # (nan or 0 distances) or 3.
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "ewp": {"particles": 4},
                 "zeroshot": {"oracle_samples": 10,
                              "estimate": {"kind": "file", "path": "estimate_1e308.json"}}},
                id="estimate-atoms-1e308",
            ),
            pytest.param(
                {"algorithm": "td-cat", "mdp": {"kind": "dsm"},
                 "support": {"kind": "simplex-grid", "resolution": 2},
                 "td": {"steps": 10, "report_interval": 5,
                        "reference": {"path": "reference_1e308.json"}}},
                id="reference-atoms-minus-1e308",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 3, "dim": 2,
                                                "r_max": 1e200},
                 "ewp": {"particles": 8, "iterations": 3}},
                id="dp-ewp-r-max-1e200",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 3, "dim": 1,
                                                "r_max": 1e300},
                 "ewp": {"particles": 8, "iterations": 3}},
                id="dp-ewp-r-max-1e300",
            ),
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "kernel": {"reference_point": [1e200]}},
                id="kernel-reference-point-1e200",
            ),
            # A reference point of another dimension than the MDP's; the
            # particle algorithms used to run on it (exit 0). The schema has
            # no reference point now, so these and the other reference-point
            # payloads exit 2 as unknown keys.
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 2},
                 "ewp": {"particles": 4, "iterations": 2},
                 "kernel": {"reference_point": [0, 0, 0]}},
                id="dp-ewp-reference-point-dimension-3",
            ),
            pytest.param(
                {"algorithm": "td-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 2},
                 "td": {"steps": 10, "particles": 4},
                 "kernel": {"reference_point": [0, 0, 0]}},
                id="td-ewp-reference-point-dimension-3",
            ),
            # Exited 1: a ValueError from the einsum in pairwise_semimetric.
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "file", "path": "support_nested.json"}},
                id="support-atoms-nested-too-deep",
            ),
            # Exited 1: a ValueError from a reduction over no coordinates,
            # and one from concatenating no states.
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "file", "path": "support_zero_dim.json"}},
                id="support-atoms-zero-dim",
            ),
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "file", "path": "support_no_states.json"}},
                id="support-no-states",
            ),
            # Used to run (exit 0): numpy parsed the strings.
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "file", "path": "support_string.json"}},
                id="support-atoms-string",
            ),
            # Exited 1: a count of 1e308 reached numpy as a size, raising
            # ValueError ("Maximum allowed dimension exceeded") or
            # OverflowError. Found by the exit-code fuzz.
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 1e308, "dim": 1}},
                id="mdp-n-states-1e308",
            ),
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "grid", "m": 1e308}},
                id="support-m-1e308",
            ),
            pytest.param(
                {"algorithm": "td-cat", "mdp": {"kind": "dsm", "n_states": 2},
                 "support": {"kind": "simplex-grid", "resolution": 1e308}, "td": {"steps": 10}},
                id="support-resolution-1e308",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "ewp": {"particles": 1e308, "iterations": 2}},
                id="ewp-particles-1e308",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "ewp": {"particles": 4, "iterations": 2}, "zeroshot": {"oracle_samples": 1e308}},
                id="zeroshot-oracle-samples-1e308",
            ),
            # Exited 1: counts below 2^63 whose arrays of doubles pass
            # numpy's largest byte size, raising ValueError ("array is too
            # big") before any allocation.
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2**62, "dim": 1}},
                id="mdp-n-states-2-62",
            ),
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 2**62}},
                id="mdp-dim-2-62",
            ),
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "grid", "m": 2**62}},
                id="support-m-2-62",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "ewp": {"particles": 2**62, "iterations": 2}},
                id="ewp-particles-2-62",
            ),
            pytest.param(
                {"algorithm": "dp-ewp", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "ewp": {"particles": 4, "iterations": 2}, "zeroshot": {"oracle_samples": 2**62}},
                id="zeroshot-oracle-samples-2-62",
            ),
            # Exited 1: counts below 2^60 whose arrays of doubles still pass
            # numpy's largest byte size (2^60 cumulants; 2^60 grid atoms,
            # as round(m^(1/d)) rounds 2^60 - 1 up).
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 2**59}},
                id="mdp-cumulants-2-60",
            ),
            pytest.param(
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 1},
                 "support": {"kind": "grid", "m": 2**60 - 1}},
                id="support-m-2-60-minus-1",
            ),
            *(pytest.param(payload, id=name) for name, (payload, _) in MALFORMED_DOCUMENTS.items()),
            # Exited 0 and echoed version 1, as True == 1.
            pytest.param({"format_version": True, "algorithm": "dp-cat"},
                         id="config-format-version-true"),
            # Kinds that cannot be hashed, so cannot be looked up in a table.
            pytest.param({"algorithm": "dp-cat", "mdp": {"kind": ["random"]}}, id="mdp-kind-list"),
            pytest.param(
                {"algorithm": "dp-cat", "zeroshot": {"estimate": {"kind": {}}}},
                id="zeroshot-estimate-kind-object",
            ),
        ],
    )
    def test_malformed_values_never_exit_1(self, tmp_path, monkeypatch, payload):
        # Every payload is a fault in the inputs, so a config error (2).
        # A payload that run does not read goes on to zeroshot-eval.
        assert run_then_zeroshot(tmp_path, monkeypatch, payload) == 2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(fuzz_cases())
    def test_fuzzed_documents_never_exit_1(self, case):
        # One node of a valid config, MDP, support or estimate document is
        # swapped for another type, a non-finite or huge number, a negative,
        # a count one too many, an empty list or an extra nesting level, or
        # dropped or joined by an extra key; --out is a new path, an existing
        # file, a path below a file or an existing directory. Whatever it
        # reads, the CLI exits 0, 2 or 3, and an unusable --out is refused
        # whatever the documents hold.
        documents, out = case
        with tempfile.TemporaryDirectory() as directory:
            codes, stderr = exit_codes(Path(directory), documents, out)
        assert set(codes.values()) <= {0, 2, 3}
        assert "Traceback" not in stderr
        assert codes["gen-mdp"] == OUT_CODES["gen-mdp"][out]
        for command, code in codes.items():
            if OUT_CODES[command][out] == 2:
                assert code == 2

    @pytest.mark.parametrize("out", sorted(OUT_CODES["run"]))
    def test_out_target_exit_codes(self, tmp_path, out):
        # The fuzz's valid dp-cat documents with a zeroshot section.
        documents = {"config.json": FUZZ_CONFIGS[0], **FUZZ_FILES}
        codes, stderr = exit_codes(tmp_path, documents, out)
        assert codes == {command: OUT_CODES[command][out] for command in OUT_CODES}, stderr

    @pytest.mark.parametrize("payload, field", MALFORMED_DOCUMENTS.values(), ids=list(MALFORMED_DOCUMENTS))
    def test_malformed_document_error_names_field(self, tmp_path, monkeypatch, capsys, payload, field):
        assert run_then_zeroshot(tmp_path, monkeypatch, payload) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("payload", MISMATCHED_REFERENCES)
    def test_mismatched_reference_exits_2_before_any_step(
        self, tmp_path, monkeypatch, capsys, payload
    ):
        import mmdrl.experiments as experiments

        def no_run(*args, **kwargs):
            raise AssertionError("the TD engine started")

        write_malformed_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "categorical_td_run", no_run)
        monkeypatch.setattr(experiments, "ewp_td_run", no_run)
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "td.reference" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"algorithm": "dp-cat", "mdp": {"kind": "dsm", "n_states": 0}}, "n_states"),
            (
                {"algorithm": "dp-cat", "mdp": {"kind": "dsm", "dirichlet_concentration": -1}},
                "dirichlet_concentration",
            ),
            ({"algorithm": "td-ewp", "td": {"steps": 10, "particles": 0}}, "particles"),
            ({"algorithm": "dp-cat", "dp": {"max_iter": -1}}, "max_iter"),
            ({"algorithm": "dp-cat", "zeroshot": {"oracle_samples": 0}}, "oracle_samples"),
            ({"algorithm": "dp-cat", "kernel": {"reference_point": [float("nan")]}}, "reference_point"),
            ({"algorithm": "dp-cat", "zeroshot": {"nonnegative_orthant": "no"}}, "nonnegative_orthant"),
            ({"algorithm": "dp-cat", "suport": {"kind": "grid", "m": 4}}, "suport"),
            ({"algorithm": "dp-cat", "mdp": {"kind": "random", "n_state": 2}}, "n_state"),
            (
                {
                    "algorithm": "dp-cat",
                    "zeroshot": {"estimate": {"kind": "file", "path": "out/{run}/estimate.json"}},
                },
                "run",
            ),
            ({"algorithm": "dp-cat", "seeds": [0, 0]}, "seeds"),
            (
                {
                    "algorithm": "dp-cat",
                    "zeroshot": {"estimate": {"kind": "file", "path": "out/{seed:q}/e.json"}},
                },
                "zeroshot.estimate.path",
            ),
            ({"algorithm": "dp-cat", "seeds": [1.7]}, "seeds"),
            ({"algorithm": "dp-cat", "seeds": [True]}, "seeds"),
            ({"algorithm": "td-cat", "td": {"steps": 10.5}}, "td.steps"),
            ({"algorithm": "td-cat", "td": {"steps": True}}, "td.steps"),
            ({"algorithm": "td-cat", "td": {"steps": "12"}}, "td.steps"),
            ({"algorithm": "dp-cat", "support": {"kind": "grid", "m": 4.5}}, "support.m"),
            ({"algorithm": "dp-cat", "dp": {"max_iter": float("inf")}}, "dp.max_iter"),
            ({"algorithm": "dp-cat", "mdp": {"kind": "random", "dim": 2**62}}, "mdp.dim"),
            ({"algorithm": "dp-cat", "support": {"kind": "random", "m": 2**60}}, "support.m"),
            ({"algorithm": "td-ewp", "td": {"steps": 10, "particles": 2**62}}, "td.particles"),
            ({"algorithm": "dp-cat", "zeroshot": {"oracle_samples": 2**62}}, "zeroshot.oracle_samples"),
            ({"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 2**59}}, "mdp.dim"),
            ({"algorithm": "dp-cat", "support": {"kind": "grid", "m": 2**60 - 1}}, "support.m"),
            (
                {"algorithm": "dp-cat", "mdp": {"kind": "random", "n_states": 2, "dim": 2},
                 "support": {"kind": "random", "m": 2**59}},
                "support.m",
            ),
        ],
    )
    def test_out_of_bounds_and_unknown_keys_exit_2(self, tmp_path, capsys, payload, key):
        payload = {
            "mdp": {"kind": "random", "n_states": 2, "dim": 1},
            "support": {"kind": "grid", "m": 4},
            "seeds": [0],
            **payload,
        }
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "m, dim, code", [(0, 1, 2), (1, 1, 2), (3, 2, 2), (2, 1, 0), (5, 2, 0)]
    )
    def test_grid_needs_two_points_per_axis(self, tmp_path, capsys, m, dim, code):
        config = dp_cat_config(
            tmp_path,
            mdp={"kind": "random", "n_states": 2, "dim": dim, "gamma": 0.5},
            support={"kind": "grid", "m": m},
            seeds=[0],
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == code
        if code == 2:
            assert f"needs at least {2**dim} atoms" in capsys.readouterr().err
        else:
            # A grid has round(m^(1/d)) points per axis: m=5 at d=2 runs on 4 atoms.
            summary = json.loads((tmp_path / "o" / "summary.json").read_text())
            realised = round(m ** (1 / dim)) ** dim
            assert summary["per_seed"][0]["support_atoms"] == [realised, realised]

    def test_engine_error_exits_3(self, tmp_path, monkeypatch):
        import mmdrl.cli as cli_module

        config = dp_cat_config(tmp_path)
        monkeypatch.setattr(
            cli_module,
            "run_experiment",
            lambda *a, **k: (_ for _ in ()).throw(SolverError("stalled", 1.0)),
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 3


class TestWriteFailure:
    """A write that fails after the engines ran (a full disk) is reported
    in one line with exit 3; it used to end in an OSError traceback."""

    @pytest.mark.parametrize("command", ["run", "zeroshot-eval"])
    @pytest.mark.parametrize("writer", ["_write_csv", "json.dump"])
    def test_failed_write_exits_3(self, tmp_path, monkeypatch, capsys, command, writer):
        import errno

        import mmdrl.experiments as experiments

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        config = write_config(tmp_path, {
            "algorithm": "dp-ewp",
            "mdp": {"kind": "random", "n_states": 2, "dim": 1},
            "ewp": {"particles": 4},
            "zeroshot": {"oracle_samples": 10},
            "seeds": [0],
        })
        target = experiments.json if writer == "json.dump" else experiments
        monkeypatch.setattr(target, writer.split(".")[-1], full_disk)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["output error: [Errno 28] No space left on device"]


class TestOutPaths:
    """An unusable ``--out`` is a config error naming the flag, found before
    any engine runs; each of these exited 1 with an OSError traceback."""

    @pytest.mark.parametrize(
        "command, target",
        [
            pytest.param("run", "file", id="run-out-is-a-file"),
            pytest.param("run", "under-file", id="run-out-under-a-file"),
            pytest.param("zeroshot-eval", "file", id="zeroshot-eval-out-is-a-file"),
            pytest.param("zeroshot-eval", "under-file", id="zeroshot-eval-out-under-a-file"),
            pytest.param("mesh-report", "dir", id="mesh-report-out-is-a-directory"),
            pytest.param("cert-nonaffine", "dir", id="cert-nonaffine-out-is-a-directory"),
            pytest.param("gen-mdp", "dir", id="gen-mdp-out-is-a-directory"),
            pytest.param("mesh-report", "under-file", id="mesh-report-out-under-a-file"),
        ],
    )
    def test_unusable_out_exits_2(self, tmp_path, monkeypatch, capsys, command, target):
        import mmdrl.cli as cli_module

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine started")

        for name in ("run_experiment", "zeroshot_run", "mesh_and_bound",
                     "nonaffinity_certificate", "build_mdp"):
            monkeypatch.setattr(cli_module, name, no_engine)
        (tmp_path / "file").write_text("keep")
        (tmp_path / "dir").mkdir()
        out = {"file": "file", "dir": "dir", "under-file": "file/out"}[target]
        config = dp_cat_config(tmp_path, seeds=[0], zeroshot={"reward_draws": 1})
        mdp_path = tmp_path / "mdp.json"
        random_mdp(2, 2, 0.8, 1.0, rng_stream(0)).save(mdp_path)
        args = {
            "run": ["--config", config],
            "zeroshot-eval": ["--config", config],
            "mesh-report": ["--mdp", str(mdp_path)],
            "cert-nonaffine": [],
            "gen-mdp": [],
        }[command]
        assert main([command, *args, "--out", str(tmp_path / out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "keep"

    def test_out_file_check_leaves_nothing_behind(self, tmp_path):
        # The support is refused after --out was checked: no empty report.
        mdp_path = tmp_path / "mdp.json"
        random_mdp(2, 2, 0.8, 1.0, rng_stream(0)).save(mdp_path)
        out = tmp_path / "report.json"
        args = ["mesh-report", "--mdp", str(mdp_path), "--support-m", "1", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()


class TestCertNonaffine:
    def test_prints_table_and_gap(self, tmp_path, capsys):
        assert main(["cert-nonaffine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "xi_0,xi_1,projected_mixture,mixture_of_projections"
        assert len(lines) == 18
        assert lines[-1].startswith("# mmd_gap = ")
        gap = float(lines[-1].split("=")[1])
        assert gap >= 1e-3

    def test_writes_file(self, tmp_path):
        out = tmp_path / "cert.csv"
        assert main(["cert-nonaffine", "--out", str(out)]) == 0
        assert out.exists()

    def test_certificate_weights_sum_to_one(self):
        cert = nonaffinity_certificate()
        assert np.sum(cert["projected_mixture"]) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(cert["mixture_of_projections"]) == pytest.approx(1.0, abs=1e-9)


class TestZeroshotEval:
    def test_rows_per_seed_and_draw(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "dp": {"tol": 1e-4, "max_iter": 100},
                "seeds": [0, 1],
                "zeroshot": {
                    "reward_draws": 3,
                    "oracle_samples": 200,
                    "tail_tol": 1e-2,
                },
            },
        )
        out = tmp_path / "zs"
        assert main(["zeroshot-eval", "--config", config, "--out", str(out)]) == 0
        lines = (out / "zeroshot.csv").read_text().splitlines()
        assert lines[0] == "seed,draw,w_0,w_1,cramer_mean"
        assert len(lines) == 1 + 2 * 3
        summary = json.loads((out / "zeroshot_summary.json").read_text())
        assert summary["rows"] == 6
        assert summary["cramer_ci95"][0] <= summary["cramer_mean"]
        assert summary["oracle_s"] > 0.0 and summary["scoring_s"] > 0.0

    def test_missing_file_exits_2(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "file", "path": str(tmp_path / "absent.json")},
                "support": {"kind": "grid", "m": 4},
                "seeds": [0],
            },
        )
        assert main(["zeroshot-eval", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_estimate_from_file(self, tmp_path):
        # Solve once with `run`, then evaluate the saved estimates.
        run_config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "dp": {"tol": 1e-4, "max_iter": 100},
                "seeds": [0],
            },
            name="run.json",
        )
        out = tmp_path / "solved"
        assert main(["run", "--config", run_config, "--out", str(out)]) == 0
        zs_config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "seeds": [0],
                "zeroshot": {
                    "reward_draws": 2,
                    "oracle_samples": 100,
                    "tail_tol": 1e-2,
                    "estimate": {
                        "kind": "file",
                        "path": str(out / "seed_{seed}" / "estimate.json"),
                    },
                },
            },
            name="zs.json",
        )
        zs_out = tmp_path / "zs"
        assert main(["zeroshot-eval", "--config", zs_config, "--out", str(zs_out)]) == 0
        lines = (zs_out / "zeroshot.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_missing_estimate_file_exits_2(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "seeds": [0],
                "zeroshot": {
                    "reward_draws": 2,
                    "oracle_samples": 100,
                    "tail_tol": 1e-2,
                    "estimate": {"kind": "file", "path": str(tmp_path / "none_{seed}.json")},
                },
            },
        )
        assert main(["zeroshot-eval", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_out_of_memory_exits_3(self, tmp_path, capsys):
        # 10**14 rollouts (728 TiB of int64 states) fail inside malloc at
        # once; no page of them is ever touched.
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "seeds": [0],
                "zeroshot": {"reward_draws": 1, "oracle_samples": 10**14},
            },
        )
        assert main(["zeroshot-eval", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("engine error: out of memory")

    @pytest.mark.parametrize("n_states, dim", [(2, 2), (5, 1), (7, 2)])
    def test_mismatched_estimate_exits_2(self, tmp_path, capsys, n_states, dim):
        # A 2-measure estimate for the 5-state MDP exited 1 with an IndexError.
        estimate = tmp_path / "estimate.json"
        estimate.write_text(json.dumps(point_masses(n_states, dim)))
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 5, "dim": 2, "gamma": 0.8},
                "seeds": [0],
                "zeroshot": {"reward_draws": 1, "estimate": {"kind": "file", "path": str(estimate)}},
            },
        )
        assert main(["zeroshot-eval", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "zeroshot.estimate" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["not_json.json", "list.json", "no_measures.json"])
    def test_malformed_estimate_file_exits_2(self, tmp_path, name):
        write_malformed_files(tmp_path)
        config = write_config(
            tmp_path,
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "random", "n_states": 2, "dim": 2, "gamma": 0.8},
                "support": {"kind": "grid", "m": 9},
                "seeds": [0],
                "zeroshot": {"estimate": {"kind": "file", "path": str(tmp_path / name)}},
            },
        )
        assert main(["zeroshot-eval", "--config", config, "--out", str(tmp_path / "o")]) == 2


class TestMeshReport:
    def test_grid_report(self, tmp_path, capsys):
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--n-states", "2", "--dim", "1", "--gamma", "0.5", "--out", str(mdp_path)])
        assert main(["mesh-report", "--mdp", str(mdp_path), "--support-m", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"mesh", "fixed_point_bound", "uniform_grid_bound", "exact"}
        assert payload["exact"] is True

    @pytest.mark.parametrize("kind", ["random", "simplex-grid"])
    def test_non_grid_supports(self, tmp_path, capsys, kind):
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--n-states", "2", "--dim", "2", "--gamma", "0.5", "--out", str(mdp_path)])
        args = ["--support-kind", kind, "--support-m", "9", "--support-resolution", "3"]
        assert main(["mesh-report", "--mdp", str(mdp_path), *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is False
        assert payload["mesh"] > 0.0

    def test_missing_mdp_exits_2(self, tmp_path):
        assert main(["mesh-report", "--mdp", str(tmp_path / "nope.json")]) == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # Only a random support reads the seed; the others used to exit 0.
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--n-states", "2", "--dim", "2", "--out", str(mdp_path)])
        for kind in ("grid", "random", "simplex-grid"):
            args = ["--support-kind", kind, "--support-m", "9", "--seed", "-1"]
            assert main(["mesh-report", "--mdp", str(mdp_path), *args]) == 2, kind
            assert "seed" in capsys.readouterr().err

    def test_support_m_takes_the_config_rule(self, tmp_path, capsys):
        # 2^62 went to build_support unchecked; at d = 1 numpy then raised
        # "array is too big" out of main (exit 1).
        mdp_path = tmp_path / "mdp.json"
        random_mdp(2, 1, 0.5, 1.0, rng_stream(0)).save(mdp_path)
        args = ["mesh-report", "--mdp", str(mdp_path), "--support-m", str(2**62)]
        assert main(args) == 2
        assert "support.m" in capsys.readouterr().err

    def test_mdp_overflow_refused_before_any_support(self, tmp_path, capsys):
        # The grid on [0, v_max] used to be built first: np.linspace warned
        # of an invalid value before the support's atoms were refused.
        mdp_path = tmp_path / "mdp.json"
        random_mdp(2, 1, 0.5, 1.0, rng_stream(0)).save(mdp_path)
        mdp_path.write_text(json.dumps({**json.loads(mdp_path.read_text()), "r_max": 1e308}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["mesh-report", "--mdp", str(mdp_path)]) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "mdp v_max" in capsys.readouterr().err


class TestConfigResolution:
    def test_defaults_filled(self, tmp_path):
        config = resolve_config({"algorithm": "dp-cat"})
        assert config.resolved["mdp"]["gamma"] == 0.9
        assert config.resolved["kernel"]["alpha"] == 1.0
        assert config.resolved["support"]["kind"] == "grid"
        assert config.seeds == [0]

    def test_version_checked(self):
        from mmdrl import InvalidInputError

        with pytest.raises(InvalidInputError):
            resolve_config({"format_version": 99, "algorithm": "dp-cat"})

    def test_mdp_file_round_trip(self, tmp_path):
        mdp_path = tmp_path / "m.json"
        main(["gen-mdp", "--n-states", "2", "--dim", "1", "--gamma", "0.8", "--out", str(mdp_path)])
        config = load_config(
            write_config(
                tmp_path,
                {
                    "algorithm": "dp-cat",
                    "mdp": {"kind": "file", "path": str(mdp_path)},
                    "support": {"kind": "grid", "m": 6},
                    "dp": {"tol": 1e-4, "max_iter": 50},
                    "seeds": [0],
                },
            )
        )
        result = run_seed(config, 0)
        assert result.estimate is not None

    def test_dsm_mdp_kind(self, tmp_path):
        config = resolve_config(
            {
                "algorithm": "dp-cat",
                "mdp": {"kind": "dsm", "n_states": 3, "gamma": 0.9},
                "support": {"kind": "simplex-grid", "resolution": 4},
                "dp": {"tol": 1e-4, "max_iter": 100},
                "seeds": [0],
            }
        )
        result = run_seed(config, 0)
        assert result.estimate.dim == 3
