"""Dynamic-programming engines: exact, projected categorical, randomized particle."""

import numpy as np
import pytest

from mmdrl import (
    DiscreteMeasure,
    EwpConfig,
    InvalidInputError,
    ReturnDistFn,
    SupportBlowupError,
    SupportMap,
    TabularMDP,
    categorical,
    categorical_dp_solve,
    categorical_dp_step,
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
)
from mmdrl.dp import point_init

from util import (
    random_probability_measure,
    reference_merge_close_atoms,
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


class TestCategoricalDpStep:
    def test_on_grid_self_loop_matches_exact(self):
        # Support closed under the backup map: projection is the identity.
        mdp = self_loop_mdp([0.5], 0.5)
        support = SupportMap.constant(np.array([[0.0], [0.5], [1.0]]), 1)
        eta = categorical(support, [np.array([0.0, 0.0, 1.0])])
        out = categorical_dp_step(eta, mdp, support, SPEC)
        exact = exact_bellman(eta, mdp)
        assert mmd(out[0], exact[0], SPEC) <= 1e-7

    def test_fixed_point_is_stationary(self):
        mdp = random_mdp(3, 1, 0.8, 1.0, rng_stream(4))
        support = SupportMap.uniform_grid(3, 1, 12, mdp.v_max)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-10, max_iter=600)
        stepped = categorical_dp_step(report.final, mdp, support, SPEC)
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
                categorical_dp_step(eta1, mdp, support, SPEC),
                categorical_dp_step(eta2, mdp, support, SPEC),
                SPEC,
            )
            assert lhs <= 0.8**0.5 * sup_mmd(eta1, eta2, SPEC) + 1e-7

    def test_requires_supported_input(self):
        mdp = random_mdp(2, 1, 0.8, 1.0, rng_stream(6))
        support = SupportMap.uniform_grid(2, 1, 8, mdp.v_max)
        off_support = ReturnDistFn(
            (DiscreteMeasure.point([0.123]), DiscreteMeasure.point([0.456]))
        )
        with pytest.raises(InvalidInputError):
            categorical_dp_step(off_support, mdp, support, SPEC)


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

    def test_report_csv(self, tmp_path):
        mdp = random_mdp(2, 1, 0.8, 1.0, rng_stream(11))
        support = SupportMap.uniform_grid(2, 1, 8, mdp.v_max)
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-6, max_iter=100)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,sup_mmd"
        assert len(lines) == report.iterations + 1

    def test_tolerance_validated(self):
        mdp = random_mdp(2, 1, 0.8, 1.0, rng_stream(12))
        support = SupportMap.uniform_grid(2, 1, 4, mdp.v_max)
        with pytest.raises(InvalidInputError):
            categorical_dp_solve(mdp, support, SPEC, tol=0.0)


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
        report = ewp_random_solve(
            mdp, config, SPEC, rng=rng_stream(1, 2), track_backup_gap=True
        )
        assert len(report.backup_gaps) == 5
        assert all(np.isfinite(g) for g in report.backup_gaps)

    def test_oracle_distance_reported(self):
        mdp = random_mdp(2, 1, 0.8, 1.0, rng_stream(19))
        oracle = point_init(mdp)
        config = EwpConfig(m=8, iterations=3, seed=2)
        report = ewp_random_solve(mdp, config, SPEC, oracle=oracle)
        assert report.oracle_distance is not None
        assert np.isfinite(report.oracle_distance)

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
        # energy sum and the atom merge run through their reference bodies.
        from mmdrl import kernels, measures

        mdp = random_mdp(3, dim, 0.9, 1.0, rng_stream(22))
        config = EwpConfig(m=64, iterations=8, seed=4)
        spec = energy_kernel(alpha)

        def solve():
            return ewp_random_solve(
                mdp, config, spec, rng=rng_stream(4, 2), track_backup_gap=True
            )

        shipped = solve()
        monkeypatch.setattr(kernels, "signed_energy_sum", reference_signed_energy_sum)
        monkeypatch.setattr(kernels, "merge_close_atoms", reference_merge_close_atoms)
        monkeypatch.setattr(measures, "merge_close_atoms", reference_merge_close_atoms)
        reference = solve()
        assert np.array(shipped.distances).tobytes() == np.array(reference.distances).tobytes()
        assert np.array(shipped.backup_gaps).tobytes() == np.array(reference.backup_gaps).tobytes()
        for x in range(mdp.n_states):
            assert shipped.final[x].atoms.tobytes() == reference.final[x].atoms.tobytes()


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
