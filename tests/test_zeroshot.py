"""Zero-shot evaluation phase: the state-by-state oracle against the body
that held every state's rollouts, and how its memory grows with states."""

import tracemalloc

import numpy as np
import pytest

from mmdrl.config import resolve_config
from mmdrl.experiments import run_seed, zeroshot_seed
from mmdrl.measures import PROBABILITY_TOL

from util import reference_zeroshot_seed


def _config(dim, n_states, zeroshot):
    return resolve_config({
        "algorithm": "dp-cat",
        "mdp": {"kind": "random", "n_states": n_states, "dim": dim, "gamma": 0.8},
        "support": {"kind": "grid", "m": 3**dim},
        "dp": {"tol": 1e-3, "max_iter": 50},
        "seeds": [3],
        "zeroshot": {"oracle_samples": 300, "tail_tol": 1e-2, **zeroshot},
    })


def _signed_td_estimate(tmp_path, dim, n_states):
    """Path of a short td-cat run's estimate, with the estimate itself."""
    td = resolve_config({
        "algorithm": "td-cat",
        "mdp": {"kind": "random", "n_states": n_states, "dim": dim, "gamma": 0.8},
        "support": {"kind": "grid", "m": 3**dim},
        "td": {"steps": 40, "report_interval": 40, "reference": None},
        "seeds": [3],
    })
    estimate = run_seed(td, 3).estimate
    path = tmp_path / "estimate_{seed}.json"
    estimate.save(str(path).format(seed=3))
    return str(path), estimate


@pytest.mark.parametrize("source", ["solve", "td-cat file"])
@pytest.mark.parametrize("n_states", [1, 3, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rows_match_reference_order(tmp_path, dim, n_states, source):
    estimate = {"kind": "solve"}
    if source == "td-cat file":
        path, signed = _signed_td_estimate(tmp_path, dim, n_states)
        estimate = {"kind": "file", "path": path}
        # At d >= 2 the signed estimate has negative weights, so it is
        # projected onto probability weights before scoring; at d = 1 the
        # signed projection is already a probability vector.
        lowest = min(np.min(m.weights) for m in signed)
        assert (lowest < -PROBABILITY_TOL) == (dim > 1)
    for orthant in (True, False):
        for draws in (1, 4):
            config = _config(
                dim,
                n_states,
                {"reward_draws": draws, "nonnegative_orthant": orthant, "estimate": estimate},
            )
            rows, oracle_s, scoring_s = zeroshot_seed(config, 3)
            assert rows == reference_zeroshot_seed(config, 3)
            assert len(rows) == draws
            assert oracle_s > 0.0 and scoring_s > 0.0


def _traced_peak(n_states, n):
    config = resolve_config({
        "algorithm": "dp-cat",
        "mdp": {"kind": "random", "n_states": n_states, "dim": 2, "gamma": 0.5},
        "support": {"kind": "grid", "m": 9},
        "seeds": [0],
        "zeroshot": {"reward_draws": 2, "oracle_samples": n, "tail_tol": 1e-2},
    })
    estimate = run_seed(config, 0).estimate
    tracemalloc.start()
    try:
        zeroshot_seed(config, 0, estimate)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_live_rollouts_do_not_grow_with_states():
    # Holding every state's rollouts would add n * d * 8 bytes per state:
    # 14 more states would add 4.5 MB. Streamed, one state's are live.
    n, d = 20_000, 2
    growth = _traced_peak(16, n) - _traced_peak(2, n)
    assert growth < 4 * n * d * 8
