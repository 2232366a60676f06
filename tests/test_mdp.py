"""Tabular MDP model, random instances, sampling, and rollouts."""

import json

import numpy as np
import pytest

from mmdrl import (
    InvalidInputError,
    TabularMDP,
    dsm_mdp,
    random_mdp,
    rng_stream,
    rollout_return,
    rollout_returns,
    sample_transition,
    successor_feature_means,
)
from mmdrl.mdp import horizon_for_tail

from util import reference_rollout_returns


class TestRngStream:
    def test_same_pair_same_draws(self):
        a = rng_stream(42, 3).random(10)
        b = rng_stream(42, 3).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = rng_stream(42, 0).random(10)
        b = rng_stream(42, 1).random(10)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            rng_stream(-1)


class TestTabularMDP:
    def test_row_sums_validated(self):
        with pytest.raises(InvalidInputError):
            TabularMDP(np.array([[0.5, 0.4]] * 2), np.zeros((2, 1)), 0.9)

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            TabularMDP(np.array([[1.5, -0.5], [0.0, 1.0]]), np.zeros((2, 1)), 0.9)

    def test_cumulant_bounds(self):
        with pytest.raises(InvalidInputError):
            TabularMDP(np.eye(2), np.full((2, 1), 1.5), 0.9, r_max=1.0)

    def test_nan_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            TabularMDP(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.zeros((2, 1)), 0.9)
        with pytest.raises(InvalidInputError):
            TabularMDP(np.eye(2), np.array([[0.5], [np.nan]]), 0.9)

    @pytest.mark.parametrize(
        "transition, cumulants",
        [(np.zeros((0, 0)), np.zeros((0, 1))), (np.eye(2), np.zeros((2, 0)))],
    )
    def test_needs_a_state_and_a_reward_dimension(self, transition, cumulants):
        with pytest.raises(InvalidInputError):
            TabularMDP(transition, cumulants, 0.9)

    def test_gamma_range(self):
        with pytest.raises(InvalidInputError):
            TabularMDP(np.eye(2), np.zeros((2, 1)), 1.0)

    def test_json_round_trip(self, tmp_path):
        mdp = random_mdp(4, 2, 0.8, 1.0, rng_stream(0))
        path = tmp_path / "mdp.json"
        mdp.save(path)
        loaded = TabularMDP.load(path)
        np.testing.assert_array_equal(loaded.transition, mdp.transition)
        np.testing.assert_array_equal(loaded.cumulants, mdp.cumulants)
        assert loaded.gamma == mdp.gamma
        assert loaded.r_max == mdp.r_max
        # save writes through json.dumps; the bytes are json.dump's.
        with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
            json.dump(mdp.to_json(), fh)
        assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


class TestRandomMdp:
    def test_single_state_simplex(self):
        mdp = random_mdp(1, 1, 0.5, 1.0, rng_stream(0))
        np.testing.assert_allclose(mdp.transition, [[1.0]])

    def test_rows_sum_to_one(self):
        mdp = random_mdp(7, 2, 0.9, 0.5, rng_stream(1))
        np.testing.assert_allclose(mdp.transition.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(mdp.transition >= 0.0)

    def test_seed_determinism(self):
        a = random_mdp(5, 3, 0.9, 1.0, rng_stream(7))
        b = random_mdp(5, 3, 0.9, 1.0, rng_stream(7))
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.cumulants, b.cumulants)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            random_mdp(0, 1, 0.9, 1.0, rng_stream(0))
        with pytest.raises(InvalidInputError):
            random_mdp(2, 1, 0.9, -1.0, rng_stream(0))


class TestDsmMdp:
    def test_cumulants_scaled_identity(self):
        mdp = dsm_mdp(np.full((3, 3), 1 / 3), 0.9)
        np.testing.assert_allclose(mdp.cumulants, 0.1 * np.eye(3), atol=1e-15)
        assert mdp.dim == 3

    def test_single_state(self):
        mdp = dsm_mdp(np.array([[1.0]]), 0.5)
        assert mdp.cumulants[0, 0] == pytest.approx(0.5)
        # Geometric series: the lone return is exactly 1.
        ret = rollout_return(mdp, 0, 60, rng_stream(0))
        assert ret[0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_stochastic(self):
        with pytest.raises(InvalidInputError):
            dsm_mdp(np.array([[0.5, 0.1], [0.0, 1.0]]), 0.9)

    def test_return_coordinates_sum_to_one(self):
        rng = rng_stream(3)
        mdp = dsm_mdp(rng.dirichlet(np.ones(4), size=4), 0.9)
        horizon = horizon_for_tail(mdp, 1e-6)
        returns = rollout_returns(mdp, 0, horizon, 200, rng)
        np.testing.assert_allclose(returns.sum(axis=1), 1.0, atol=1e-5)


class TestSampleTransition:
    def test_deterministic_row(self):
        transition = np.array([[0.0, 1.0], [0.0, 1.0]])
        mdp = TabularMDP(transition, np.zeros((2, 1)), 0.9)
        rng = rng_stream(0)
        for _ in range(20):
            assert sample_transition(mdp, 0, rng).next_state == 1

    def test_reward_is_cumulant_row(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(1))
        tr = sample_transition(mdp, 2, rng_stream(2))
        np.testing.assert_array_equal(tr.reward, mdp.cumulants[2])

    def test_frequencies_match_row(self):
        mdp = random_mdp(4, 1, 0.9, 1.0, rng_stream(5))
        rng = rng_stream(6)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            counts[sample_transition(mdp, 1, rng).next_state] += 1
        np.testing.assert_allclose(counts / n, mdp.transition[1], atol=0.01)

    def test_state_range_checked(self):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(0))
        with pytest.raises(InvalidInputError):
            sample_transition(mdp, 5, rng_stream(0))


class TestRollouts:
    def test_horizon_one_returns_cumulant(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(0))
        ret = rollout_return(mdp, 1, 1, rng_stream(1))
        np.testing.assert_array_equal(ret, mdp.cumulants[1])

    def test_self_loop_geometric_series(self):
        mdp = TabularMDP(np.array([[1.0]]), np.array([[0.7]]), 0.5)
        ret = rollout_return(mdp, 0, 60, rng_stream(0))
        assert ret[0] == pytest.approx(2 * 0.7, abs=1e-9)

    def test_two_state_cycle(self):
        # Alternating rewards 1, 0 with gamma = 1/2 give 1/(1-1/4) = 4/3.
        transition = np.array([[0.0, 1.0], [1.0, 0.0]])
        mdp = TabularMDP(transition, np.array([[1.0], [0.0]]), 0.5)
        ret = rollout_return(mdp, 0, 80, rng_stream(0))
        assert ret[0] == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_vectorized_matches_analytic_mean(self):
        mdp = random_mdp(5, 2, 0.9, 1.0, rng_stream(10))
        horizon = horizon_for_tail(mdp, 1e-4)
        n = 100_000
        returns = rollout_returns(mdp, 0, horizon, n, rng_stream(11))
        expected = successor_feature_means(mdp)[0]
        se = returns.std(axis=0, ddof=1) / np.sqrt(n)
        # 3-sigma bands plus the truncation tail.
        np.testing.assert_array_less(
            np.abs(returns.mean(axis=0) - expected), 3 * se + 2e-4
        )

    def test_tail_bound_monotone(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(12))
        assert horizon_for_tail(mdp, 1e-2) <= horizon_for_tail(mdp, 1e-6)
        t = horizon_for_tail(mdp, 1e-4)
        tail = mdp.gamma**t * np.sqrt(mdp.dim) * mdp.r_max / (1 - mdp.gamma)
        assert tail <= 1e-4

    @pytest.mark.parametrize("n", [1, 7, 10_000])
    @pytest.mark.parametrize("n_states", [1, 2, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bit_equal_to_reference(self, dim, n_states, n):
        mdp = random_mdp(n_states, dim, 0.8, 0.5, rng_stream(dim, n_states))
        state = n_states - 1
        rng, ref_rng = rng_stream(21), rng_stream(21)
        got = rollout_returns(mdp, state, 25, n, rng)
        expected = reference_rollout_returns(mdp, state, 25, n, ref_rng)
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_horizon_validated(self):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(0))
        with pytest.raises(InvalidInputError):
            rollout_return(mdp, 0, 0, rng_stream(0))

    @pytest.mark.parametrize("state", [-1, 2])
    def test_rollouts_from_unknown_state_rejected(self, state):
        # The row gathers wrap indices, so the state is checked up front.
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(0))
        with pytest.raises(InvalidInputError, match="out of range"):
            rollout_returns(mdp, state, 3, 4, rng_stream(0))
