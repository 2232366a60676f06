"""Dynamic-programming engines: exact, projected categorical, randomized particle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdrl import (
    ConsistencyError,
    DiscreteMeasure,
    EwpConfig,
    InvalidInputError,
    ReturnDistFn,
    SupportBlowupError,
    SupportMap,
    TabularMDP,
    categorical,
    categorical_dp_solve,
    dsm_mdp,
    energy_kernel,
    ewp_init,
    ewp_random_solve,
    ewp_random_step,
    exact_bellman,
    mmd,
    random_mdp,
    rng_stream,
    successor_feature_means,
    sup_mmd,
    weights_on_support,
)
from mmdrl.dp import point_init

from util import (
    oracle_distance,
    random_probability_measure,
    reference_ewp_sweeps,
    reference_merge_close_atoms,
    reference_signed_cross_sum,
    reference_signed_energy_sum,
)

SPEC = energy_kernel(1.0)


def self_loop_mdp(reward, gamma):
    reward = np.atleast_1d(np.asarray(reward, dtype=float))
    return TabularMDP(np.eye(1), reward[None, :], gamma, r_max=float(max(reward.max(), 1.0)))


def random_return_dist(rng, mdp, n_atoms=4):
    measures = [
        random_probability_measure(rng, n_atoms, mdp.dim, low=0.0, high=mdp.v_max)
        for _ in range(mdp.n_states)
    ]
    return ReturnDistFn(tuple(measures))


class TestExactBellman:
    def test_fixed_point_of_self_loop(self):
        mdp = self_loop_mdp([1.0, 0.0], 0.5)
        eta = ReturnDistFn((DiscreteMeasure.point([2.0, 0.0]),))
        out = exact_bellman(eta, mdp)
        np.testing.assert_allclose(out[0].atoms, [[2.0, 0.0]])
        np.testing.assert_allclose(out[0].weights, [1.0])

    def test_deterministic_chain_is_single_pushforward(self):
        transition = np.array([[0.0, 1.0], [0.0, 1.0]])
        mdp = TabularMDP(transition, np.array([[1.0], [0.5]]), 0.5)
        eta = ReturnDistFn(
            (DiscreteMeasure.point([0.0]), DiscreteMeasure.point([1.0]))
        )
        out = exact_bellman(eta, mdp)
        np.testing.assert_allclose(out[0].atoms, [[1.5]])
        np.testing.assert_allclose(out[1].atoms, [[1.0]])

    def test_two_successor_mixture(self):
        transition = np.array([[0.0, 0.3, 0.7], [0, 1, 0], [0, 0, 1]])
        mdp = TabularMDP(transition, np.zeros((3, 1)), 0.5)
        eta = ReturnDistFn(
            (
                DiscreteMeasure.point([0.0]),
                DiscreteMeasure.point([1.0]),
                DiscreteMeasure.point([2.0]),
            )
        )
        out = exact_bellman(eta, mdp)
        order = np.argsort(out[0].atoms[:, 0])
        np.testing.assert_allclose(out[0].atoms[order], [[0.5], [1.0]])
        np.testing.assert_allclose(out[0].weights[order], [0.3, 0.7])

    def test_support_budget_enforced(self):
        mdp = random_mdp(4, 1, 0.9, 1.0, rng_stream(0))
        eta = random_return_dist(rng_stream(1), mdp, n_atoms=10)
        with pytest.raises(SupportBlowupError):
            exact_bellman(eta, mdp, max_atoms=20)

    def test_contraction(self):
        rng = rng_stream(2)
        for trial in range(20):
            mdp = random_mdp(4, 2, 0.8, 1.0, rng_stream(100 + trial))
            eta1 = random_return_dist(rng, mdp)
            eta2 = random_return_dist(rng, mdp)
            lhs = sup_mmd(exact_bellman(eta1, mdp), exact_bellman(eta2, mdp), SPEC)
            assert lhs <= 0.8**0.5 * sup_mmd(eta1, eta2, SPEC) + 1e-9

    def test_dimension_mismatch(self):
        mdp = random_mdp(2, 2, 0.9, 1.0, rng_stream(3))
        eta = ReturnDistFn(
            (DiscreteMeasure.point([0.0]), DiscreteMeasure.point([0.0]))
        )
        with pytest.raises(InvalidInputError):
            exact_bellman(eta, mdp)


def dp_step(eta, mdp, support):
    """One projected categorical backup of ``eta``, which lives on the
    support: ``categorical_dp_solve`` for one sweep from its weights."""
    weights = [weights_on_support(eta[x], support[x]) for x in range(mdp.n_states)]
    return categorical_dp_solve(
        mdp, support, SPEC, max_iter=1, init_weights=weights
    ).final


class TestCategoricalDpStep:
    def test_on_grid_self_loop_matches_exact(self):
        # Support closed under the backup map: projection is the identity.
        mdp = self_loop_mdp([0.5], 0.5)
        support = SupportMap.constant(np.array([[0.0], [0.5], [1.0]]), 1)
        eta = categorical(support, [np.array([0.0, 0.0, 1.0])])
        out = dp_step(eta, mdp, support)
        exact = exact_bellman(eta, mdp)
        assert mmd(out[0], exact[0], SPEC) <= 1e-7

    def test_fixed_point_is_stationary(self):
        mdp = random_mdp(3, 1, 0.8, 1.0, rng_stream(4))
        support = SupportMap.uniform_grid(3, 1, 12, mdp.v_max)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-10, max_iter=600)
        stepped = dp_step(report.final, mdp, support)
        assert sup_mmd(stepped, report.final, SPEC) <= 1e-7

    def test_composed_contraction(self):
        rng = rng_stream(5)
        for trial in range(10):
            mdp = random_mdp(3, 2, 0.8, 1.0, rng_stream(200 + trial))
            support = SupportMap.uniform_grid(3, 2, 9, mdp.v_max)
            w1 = [rng.dirichlet(np.ones(9)) for _ in range(3)]
            w2 = [rng.dirichlet(np.ones(9)) for _ in range(3)]
            eta1, eta2 = categorical(support, w1), categorical(support, w2)
            lhs = sup_mmd(
                dp_step(eta1, mdp, support),
                dp_step(eta2, mdp, support),
                SPEC,
            )
            assert lhs <= 0.8**0.5 * sup_mmd(eta1, eta2, SPEC) + 1e-7


class TestCategoricalDpSolve:
    def test_on_grid_point_fixed_point_quick(self):
        # Self-loop with the return exactly on the grid: two sweeps suffice.
        mdp = self_loop_mdp([0.5], 0.5)
        support = SupportMap.constant(np.array([[0.0], [0.5], [1.0]]), 1)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-8, max_iter=50)
        assert report.converged
        assert report.iterations <= 2
        np.testing.assert_allclose(report.final[0].weights, [0.0, 0.0, 1.0], atol=1e-6)

    def test_geometric_iteration_count(self):
        # Self-loop backup contracts by exactly gamma^(1/2), so the
        # geometric-rate prediction is tight there; start off the fixed
        # point to see the full transient.
        mdp = self_loop_mdp([0.377], 0.8)
        support = SupportMap.uniform_grid(1, 1, 128, mdp.v_max)
        w0 = np.zeros(128)
        w0[0] = 1.0
        tol = 1e-8
        report = categorical_dp_solve(
            mdp, support, SPEC, tol=tol, max_iter=1000, init_weights=[w0]
        )
        assert report.converged
        d0 = report.distances[0]
        predicted = np.log(tol / d0) / np.log(0.8**0.5)
        assert predicted / 2 <= report.iterations <= predicted * 2

    def test_distances_nonincreasing_after_burn_in(self):
        mdp = random_mdp(5, 2, 0.9, 1.0, rng_stream(8))
        support = SupportMap.uniform_grid(5, 2, 16, mdp.v_max)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-7, max_iter=400)
        dists = report.distances[3:]
        for a, b in zip(dists, dists[1:]):
            assert b <= a * (1.0 + 1e-6)

    def test_non_convergence_flagged(self):
        mdp = random_mdp(3, 1, 0.9, 1.0, rng_stream(9))
        support = SupportMap.uniform_grid(3, 1, 8, mdp.v_max)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-12, max_iter=3)
        assert not report.converged
        assert report.iterations == 3

    def test_signed_projection_variant(self):
        mdp = random_mdp(3, 1, 0.8, 1.0, rng_stream(10))
        support = SupportMap.uniform_grid(3, 1, 10, mdp.v_max)
        report = categorical_dp_solve(
            mdp, support, SPEC, tol=1e-10, max_iter=600, projection="signed"
        )
        assert report.converged
        for x in range(3):
            assert abs(report.final[x].mass - 1.0) <= 1e-9

    def test_tolerance_validated(self):
        mdp = random_mdp(2, 1, 0.8, 1.0, rng_stream(12))
        support = SupportMap.uniform_grid(2, 1, 4, mdp.v_max)
        with pytest.raises(InvalidInputError):
            categorical_dp_solve(mdp, support, SPEC, tol=0.0)

    @pytest.mark.parametrize("projection", ["simplex", "signed"])
    @pytest.mark.parametrize(
        "case, match",
        [
            ("two-of-three", "holds 2 vectors, expected 3"),
            ("four-of-three", "holds 4 vectors, expected 3"),
            ("short-vector", r"init_weights\[1\] has shape \(3,\), expected \(4,\)"),
            ("matrix", r"init_weights\[0\] has shape \(4, 1\), expected \(4,\)"),
            ("nan", r"init_weights\[2\] holds non-finite entries"),
        ],
        ids=["two-of-three", "four-of-three", "short-vector", "matrix", "nan"],
    )
    def test_init_weights_checked(self, projection, case, match):
        # Unchecked, the sweep would index past too few vectors, drop extra
        # ones, fail in a matmul on a wrong length and solve on a NaN.
        mdp = random_mdp(3, 1, 0.8, 1.0, rng_stream(12))
        support = SupportMap.uniform_grid(3, 1, 4, mdp.v_max)
        weights = [np.full(4, 0.25) for _ in range(3)]
        if case == "two-of-three":
            weights = weights[:2]
        elif case == "four-of-three":
            weights.append(np.full(4, 0.25))
        elif case == "short-vector":
            weights[1] = np.full(3, 1 / 3)
        elif case == "matrix":
            weights[0] = np.full((4, 1), 0.25)
        else:
            weights[2][1] = np.nan
        with pytest.raises(InvalidInputError, match=match):
            categorical_dp_solve(
                mdp, support, SPEC, max_iter=1, init_weights=weights, projection=projection
            )


class TestEwpRandomStep:
    def test_deterministic_self_loop(self):
        mdp = self_loop_mdp([1.0], 0.5)
        eta = ewp_init(mdp, 4)  # all particles at 2.0
        out = ewp_random_step(eta, mdp, 4, rng_stream(0))
        np.testing.assert_allclose(out[0].atoms, np.full((4, 1), 2.0))
        np.testing.assert_allclose(out[0].weights, np.full(4, 0.25))

    def test_single_particle_bootstrap(self):
        transition = np.array([[0.0, 1.0], [0.0, 1.0]])
        mdp = TabularMDP(transition, np.array([[1.0], [0.0]]), 0.5)
        eta = ReturnDistFn(
            (DiscreteMeasure.point([4.0]), DiscreteMeasure.point([0.0]))
        )
        out = ewp_random_step(eta, mdp, 1, rng_stream(1))
        np.testing.assert_allclose(out[0].atoms, [[1.0]])
        np.testing.assert_allclose(out[1].atoms, [[0.0]])

    def test_unbiased_mean(self):
        mdp = random_mdp(3, 1, 0.9, 1.0, rng_stream(13))
        rng = rng_stream(14)
        eta = ReturnDistFn(
            tuple(
                DiscreteMeasure(rng.uniform(0, 10, size=(8, 1)), np.full(8, 1 / 8))
                for _ in range(3)
            )
        )
        particle_means = np.array([eta[x].atoms.mean(axis=0) for x in range(3)])
        expected = mdp.cumulants[0] + mdp.gamma * (
            mdp.transition[0] @ particle_means
        )
        reps = 10_000
        samples = np.empty(reps)
        step_rng = rng_stream(15)
        for i in range(reps):
            out = ewp_random_step(eta, mdp, 8, step_rng)
            samples[i] = out[0].atoms.mean()
        se = samples.std(ddof=1) / np.sqrt(reps)
        assert abs(samples.mean() - expected[0]) <= 3 * se

    def test_slot_count_checked(self):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(16))
        eta = ewp_init(mdp, 4)
        with pytest.raises(InvalidInputError):
            ewp_random_step(eta, mdp, 8, rng_stream(0))


class TestEwpRandomSolve:
    def test_zero_iterations_returns_initialization(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(17))
        config = EwpConfig(m=16, iterations=0, seed=0)
        report = ewp_random_solve(mdp, config, SPEC)
        init = ewp_init(mdp, 16)
        assert sup_mmd(report.final, init, SPEC) == 0.0

    def test_default_iteration_count(self):
        config = EwpConfig(m=64)
        assert config.resolved_iterations(0.9, 1.0) == int(
            np.ceil(np.log(64) / np.log(1 / 0.9))
        )
        assert EwpConfig(m=1).resolved_iterations(0.9, 1.0) == 0

    def test_backup_gap_diagnostic(self):
        mdp = random_mdp(3, 1, 0.8, 1.0, rng_stream(18))
        config = EwpConfig(m=32, iterations=5, seed=1)
        _, backup_gaps, _ = reference_ewp_sweeps(mdp, config, SPEC, rng_stream(1, 2))
        assert len(backup_gaps) == 5
        assert all(np.isfinite(g) for g in backup_gaps)

    def test_oracle_distance_reported(self):
        mdp = random_mdp(2, 1, 0.8, 1.0, rng_stream(19))
        oracle = point_init(mdp)
        config = EwpConfig(m=8, iterations=3, seed=2)
        report = ewp_random_solve(mdp, config, SPEC)
        distance = oracle_distance(report, oracle, SPEC)
        assert distance is not None
        assert np.isfinite(distance)

    def test_mean_consistency(self):
        mdp = random_mdp(4, 2, 0.9, 1.0, rng_stream(20))
        m = 1024
        config = EwpConfig(m=m, seed=3)
        report = ewp_random_solve(mdp, config, SPEC, rng=rng_stream(3, 2))
        means = np.array([report.final[x].atoms.mean(axis=0) for x in range(4)])
        expected = successor_feature_means(mdp)
        tol = 5 / np.sqrt(m) * mdp.r_max / (1 - mdp.gamma)
        assert np.max(np.abs(means - expected)) <= tol

    def test_seed_determinism(self):
        mdp = random_mdp(3, 1, 0.9, 1.0, rng_stream(21))
        config = EwpConfig(m=16, iterations=4, seed=9)
        a = ewp_random_solve(mdp, config, SPEC)
        b = ewp_random_solve(mdp, config, SPEC)
        for x in range(3):
            np.testing.assert_array_equal(a.final[x].atoms, b.final[x].atoms)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_bitwise_equal_to_reference_kernels(self, monkeypatch, dim, alpha):
        # The sup-MMD series and the backup gaps are the same bytes when the
        # energy sum, the cross sum and the atom merge run through their
        # reference bodies.
        from mmdrl import dp, kernels, measures

        mdp = random_mdp(3, dim, 0.9, 1.0, rng_stream(22))
        config = EwpConfig(m=64, iterations=8, seed=4)
        spec = energy_kernel(alpha)

        def solve():
            report = ewp_random_solve(mdp, config, spec, rng=rng_stream(4, 2))
            _, gaps, _ = reference_ewp_sweeps(mdp, config, spec, rng_stream(4, 2))
            return report, gaps

        shipped, shipped_gaps = solve()
        for module in (kernels, dp):
            monkeypatch.setattr(module, "signed_energy_sum", reference_signed_energy_sum)
            monkeypatch.setattr(module, "signed_cross_sum", reference_signed_cross_sum)
            monkeypatch.setattr(module, "merge_close_atoms", reference_merge_close_atoms)
        monkeypatch.setattr(measures, "merge_close_atoms", reference_merge_close_atoms)
        reference, reference_gaps = solve()
        assert np.array(shipped.distances).tobytes() == np.array(reference.distances).tobytes()
        assert np.array(shipped_gaps).tobytes() == np.array(reference_gaps).tobytes()
        for x in range(mdp.n_states):
            assert shipped.final[x].atoms.tobytes() == reference.final[x].atoms.tobytes()


@st.composite
def particle_pairs(draw):
    """Two sets of m particle rows (new, old) at d = 1, 2 or 3, up to 1e7
    in size (r_max = 1e6 at gamma 0.9), whose rows repeat across the sets,
    differ by less than the merge tolerance or by one ulp, or differ only
    in the sign of a zero."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e3, 1e7]))
    pool = [scale * v for v in draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))]
    coord = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.sampled_from(pool),
        st.builds(lambda a, k: a + k * 1e-13, st.sampled_from(pool), st.integers(-9, 9)),
        st.builds(np.nextafter, st.sampled_from(pool), st.sampled_from([-np.inf, np.inf])),
        st.floats(-1.0, 1.0).map(lambda v: scale * v),
    )
    row = st.lists(coord, min_size=d, max_size=d)
    seen = draw(st.lists(row, min_size=1, max_size=6))
    m = draw(st.integers(1, 40))
    rows = st.lists(st.one_of(st.sampled_from(seen), row), min_size=m, max_size=m)
    return tuple(np.array(draw(rows), dtype=np.float64).reshape(m, d) for _ in range(2))


def cycle_mdp(n_states, cumulant, gamma):
    """Deterministic cycle with one cumulant for every state: the
    point-mass particles are the fixed point, so every sweep moves 0."""
    return TabularMDP(
        np.roll(np.eye(n_states), 1, axis=1), np.full((n_states, 2), cumulant), gamma
    )


class TestSupMmdScreen:
    """The screened sup-MMD of ``ewp_random_solve`` against the loop over
    every state's ``mmd``."""

    @pytest.mark.parametrize("r_max", [1.0, 1e6])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_series_equals_every_state_mmd(self, dim, alpha, r_max):
        mdp = random_mdp(4, dim, 0.9, 1.0, rng_stream(30 + dim), r_max)
        config = EwpConfig(m=32, iterations=6, seed=5)
        spec = energy_kernel(alpha)
        report = ewp_random_solve(mdp, config, spec, rng=rng_stream(5, 2))
        distances, _, final = reference_ewp_sweeps(mdp, config, spec, rng_stream(5, 2))
        assert np.array(report.distances).tobytes() == np.array(distances).tobytes()
        for x in range(mdp.n_states):
            assert report.final[x].atoms.tobytes() == final[x].atoms.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("r_max", [1e150, 1e200, 1e250, 1e300])
    @pytest.mark.parametrize("dim, alpha", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 1.5)])
    def test_series_equals_every_state_mmd_where_sums_overflow(self, dim, alpha, r_max):
        # Squared distances, powers or merge keys overflow: distances read
        # inf, nan or 0, and the screen must keep every state.
        mdp = random_mdp(3, dim, 0.9, 1.0, rng_stream(3), r_max)
        config = EwpConfig(m=8, iterations=3, seed=1)
        spec = energy_kernel(alpha)
        report = ewp_random_solve(mdp, config, spec, rng=rng_stream(1, 2))
        distances, _, _ = reference_ewp_sweeps(mdp, config, spec, rng_stream(1, 2))
        assert np.array(report.distances).tobytes() == np.array(distances).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_one_exact_mmd_per_sweep(self, monkeypatch, alpha):
        from mmdrl import dp

        calls = []
        monkeypatch.setattr(dp, "mmd", lambda p, q, spec: calls.append(1) or mmd(p, q, spec))
        mdp = random_mdp(5, 2, 0.9, 1.0, rng_stream(7))
        report = ewp_random_solve(
            mdp, EwpConfig(m=64, seed=1), energy_kernel(alpha), rng=rng_stream(1, 2)
        )
        assert len(calls) == report.iterations > 0

    @pytest.mark.parametrize("m", [2, 3, 7, 10, 16])
    def test_every_state_at_distance_zero(self, m):
        # The weights of m equal particles do not cancel exactly for some
        # m, and then the distance reads -0.0: the series keeps its sign.
        mdp = cycle_mdp(3, 0.25, 0.5)
        config = EwpConfig(m=m, iterations=4, seed=0)
        report = ewp_random_solve(mdp, config, SPEC, rng=rng_stream(0, 2))
        distances, _, _ = reference_ewp_sweeps(mdp, config, SPEC, rng_stream(0, 2))
        assert distances == [0.0] * 4
        assert np.array(report.distances).tobytes() == np.array(distances).tobytes()

    def test_signed_zero_of_the_first_state_wins(self):
        from mmdrl.dp import _merge, _sup_mmd

        def point(m):
            return DiscreteMeasure(np.zeros((m, 1)), np.full(m, 1.0 / m))

        # Two equal particles cancel to 0.0; three leave a remainder, and
        # the distance reads -0.0.
        assert [np.copysign(1.0, mmd(point(m), point(m), SPEC)) for m in (2, 3)] == [1.0, -1.0]
        for order in ((2, 3), (3, 2), (3, 3, 2), (2, 2, 3)):
            eta = ReturnDistFn(tuple(point(m) for m in order))
            sets = [_merge(measure, 1.0) for measure in eta]
            got = _sup_mmd(eta, eta, sets, sets, SPEC)
            expected = max(mmd(eta[x], eta[x], SPEC) for x in range(len(order)))
            assert np.copysign(1.0, got) == np.copysign(1.0, expected) == (1.0 if order[0] == 2 else -1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_merge_keys_keep_every_state(self):
        # Past 1.8e296 the keys x / tol are infinite, so mmd merges 1e300
        # with 1e307 and state 0 reads 0 although its screened v is 1e307.
        from mmdrl.dp import _merge, _sup_mmd

        def particles(*atoms):
            return DiscreteMeasure(np.array(atoms)[:, None], np.full(len(atoms), 1.0 / len(atoms)))

        new_eta = ReturnDistFn((particles(1e300, 1e300), particles(0.0, 1.0)))
        eta = ReturnDistFn((particles(1e307, 1e307), particles(0.5, 3.0)))
        expected = max(mmd(new_eta[x], eta[x], SPEC) for x in range(2))
        assert expected == mmd(new_eta[1], eta[1], SPEC) > 0.0
        got = _sup_mmd(
            new_eta, eta, [_merge(p, 1.0) for p in new_eta], [_merge(p, 1.0) for p in eta], SPEC
        )
        assert got == expected

    def test_kept_states_run_in_order(self, monkeypatch):
        from mmdrl import dp

        # State 2 has the highest lower end and 4 reaches it; 1 and 3 reach
        # below -NEGATIVE_SQ_TOL, where mmd may raise; 0 is dropped.
        screens = {0: (0.5, 1e-3), 1: (-1.0, 1e-3), 2: (0.9, 1e-3), 3: (-2.0, 1e-3), 4: (0.3, 0.7)}
        outcomes = {0: 0.1, 1: ConsistencyError("state 1"), 2: 0.95,
                    3: ConsistencyError("state 3"), 4: 0.9}
        calls = []

        def fake_mmd(p, q, spec):
            calls.append(int(p))
            if isinstance(outcomes[p], Exception):
                raise outcomes[p]
            return outcomes[p]

        class Particles(int):
            n_atoms = 4

        states = [Particles(x) for x in range(5)]
        monkeypatch.setattr(dp, "_screen", lambda new, old, m, alpha: screens[new])
        monkeypatch.setattr(dp, "mmd", fake_mmd)
        with pytest.raises(ConsistencyError, match="state 1"):
            dp._sup_mmd(states, states, states, states, SPEC)
        assert calls == [1]
        outcomes.update({1: 0.0, 3: 0.0})
        calls.clear()
        assert dp._sup_mmd(states, states, states, states, SPEC) == 0.95
        assert calls == [1, 2, 3, 4]
        # A screen that is not finite keeps every state.
        screens[0] = (float("nan"), 1e-3)
        calls.clear()
        assert dp._sup_mmd(states, states, states, states, SPEC) == 0.95
        assert calls == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_screen_bound_holds_on_sweeps_at_r_max_1e6(self, dim, alpha):
        from mmdrl import kernels
        from mmdrl.dp import _merge, _screen

        mdp = random_mdp(4, dim, 0.9, 1.0, rng_stream(41), 1e6)
        rng = rng_stream(42)
        eta = ewp_init(mdp, 32)
        for _ in range(5):
            new_eta = ewp_random_step(eta, mdp, 32, rng)
            for x in range(mdp.n_states):
                v, delta = _screen(_merge(new_eta[x], alpha), _merge(eta[x], alpha), 32, alpha)
                atoms, diff = kernels._stack_difference(new_eta[x], eta[x])
                joint = -0.5 * kernels.signed_energy_sum(atoms, diff, alpha)
                assert abs(v - joint) <= delta < 1e-5 * abs(joint)
            eta = new_eta

    def test_bound_covers_prefix_sum_cancellation(self):
        # 2000 scalar particles spread over [0, 1e7]: the prefix sums cancel,
        # and v and J differ by percents, far beyond the merge terms of delta.
        from mmdrl import kernels
        from mmdrl.dp import _merge, _screen

        rng = np.random.default_rng(40)
        m = 2000
        atoms = rng.uniform(0.0, 1e7, size=(m, 1))
        new = DiscreteMeasure(atoms, np.full(m, 1.0 / m))
        old = DiscreteMeasure(atoms + rng.normal(size=(m, 1)) * 1e-2, np.full(m, 1.0 / m))
        v, delta = _screen(_merge(new, 1.0), _merge(old, 1.0), m, 1.0)
        atoms, diff = kernels._stack_difference(new, old)
        joint = -0.5 * kernels.signed_energy_sum(atoms, diff, 1.0)
        assert 1e-2 * joint < abs(v - joint) <= delta

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(particle_pairs(), st.sampled_from([0.5, 1.0, 1.5]))
    def test_screen_bound_holds(self, case, alpha):
        # |v - J| <= delta against what mmd_squared computes before it
        # clamps, J = -1/2 sum of the merged union's energy.
        from mmdrl import kernels
        from mmdrl.dp import _merge, _screen

        new_atoms, old_atoms = case
        m = new_atoms.shape[0]
        new = DiscreteMeasure(new_atoms, np.full(m, 1.0 / m))
        old = DiscreteMeasure(old_atoms, np.full(m, 1.0 / m))
        v, delta = _screen(_merge(new, alpha), _merge(old, alpha), m, alpha)
        atoms, diff = kernels._stack_difference(new, old)
        joint = -0.5 * kernels.signed_energy_sum(atoms, diff, alpha) if diff.any() else 0.0
        assert abs(v - joint) <= delta


class TestFixedPointQuality:
    def test_error_within_mesh_bound(self):
        # The categorical fixed point's distance to Monte Carlo ground
        # truth respects the closed-form uniform-grid bound.
        from mmdrl import mc_oracle_fn, mesh_and_bound

        mdp = random_mdp(4, 1, 0.8, 1.0, rng_stream(22))
        support = SupportMap.uniform_grid(4, 1, 32, mdp.v_max)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-6, max_iter=400)
        oracle = mc_oracle_fn(mdp, 10_000, 1e-3, rng_stream(23))
        measured = sup_mmd(report.final, oracle, SPEC)
        bound = mesh_and_bound(support, mdp, SPEC)
        # Oracle noise inflates the measurement slightly; 10% headroom.
        assert measured <= bound.fixed_point_bound * 1.1
        assert measured <= bound.uniform_grid_bound * 1.1
