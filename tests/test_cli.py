"""Command-line interface: exit codes, determinism, output formats."""

import json

import numpy as np
import pytest

from mmdrl import ReturnDistFn, SolverError, TabularMDP, dsm_mdp, random_mdp, rng_stream
from mmdrl.cli import main
from mmdrl.config import load_config, resolve_config
from mmdrl.experiments import nonaffinity_certificate, run_seed


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def point_masses(n_states, dim):
    """Return-distribution JSON of ``n_states`` point masses at the origin."""
    point = {"dim": dim, "atoms": [[0.0] * dim], "weights": [1.0]}
    return {"n_states": n_states, "measures": [point] * n_states}


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
    files = {
        "not_json.json": "{not json",
        "list.json": "[1, 2]",
        "mdp_no_transition.json": json.dumps(mdp),
        "mdp_text_transition.json": json.dumps({**mdp, "transition": "abc"}),
        "mdp_nan_transition.json": json.dumps({**mdp, "transition": [[float("nan")]]}),
        "no_measures.json": json.dumps({"n_states": 5}),
        "reference_d2.json": json.dumps(point_masses(3, 2)),
        "reference_2_states.json": json.dumps(point_masses(2, 3)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)


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
    def test_td_cat_summary_counts_renormalizations(self, tmp_path, monkeypatch, off_mass):
        import mmdrl.experiments as experiments
        from mmdrl import DiscreteMeasure, categorical_td_run, init_td_state
        from mmdrl.td import TdState

        def run_from_off_mass_init(mdp, support, spec, *args, **kwargs):
            # Weights of mass 1 + 5e-10: blends at alpha = 0.5 drift by 2.5e-10.
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
        if off_mass:
            assert per_seed["renormalizations"] > 0
        else:
            assert per_seed["renormalizations"] == 0

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
        ],
    )
    def test_malformed_values_never_exit_1(self, tmp_path, monkeypatch, payload):
        write_malformed_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, payload)
        code = main(["run", "--config", config, "--out", str(tmp_path / "o")])
        assert code in (2, 3)

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

    def test_negative_seed_exits_2(self, tmp_path):
        mdp_path = tmp_path / "mdp.json"
        main(["gen-mdp", "--n-states", "2", "--dim", "2", "--out", str(mdp_path)])
        args = ["--support-kind", "random", "--seed", "-1"]
        assert main(["mesh-report", "--mdp", str(mdp_path), *args]) == 2


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
