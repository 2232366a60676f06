"""Metrics, oracles, zero-shot projection, and mesh calculators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdrl import (
    DiscreteMeasure,
    InvalidInputError,
    ReturnDistFn,
    ScalarDist,
    SupportMap,
    TabularMDP,
    cramer_distance,
    energy_kernel,
    mc_oracle_fn,
    mesh_and_bound,
    mmd,
    mmd_squared,
    mmd_u_statistic,
    random_mdp,
    rng_stream,
    successor_feature_means,
    sup_mmd,
    zeroshot_scalar,
)
from mmdrl.kernels import pairwise_semimetric
from mmdrl.measures import mixture

from util import (
    random_probability_measure,
    reference_cramer_distance,
    reference_merged_cramer_distance,
    reference_scalar_dist,
    reference_sorted_scalar_dist,
)

SPEC = energy_kernel(1.0)


def random_scalar_dist(rng, n_atoms=5, spread=2.0):
    atoms = rng.uniform(-spread, spread, size=n_atoms)
    w = rng.uniform(0.05, 1.0, size=n_atoms)
    return ScalarDist(atoms, w / w.sum())


class TestScalarDist:
    def test_sorted_and_merged(self):
        dist = ScalarDist([2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        np.testing.assert_allclose(dist.atoms, [0.0, 2.0])
        np.testing.assert_allclose(dist.weights, [0.5, 0.5])
        assert np.all(np.diff(dist.atoms) > 0)

    def test_mass_validated(self):
        with pytest.raises(InvalidInputError):
            ScalarDist([0.0, 1.0], [0.4, 0.4])

    def test_signed_rejected(self):
        with pytest.raises(InvalidInputError):
            ScalarDist([0.0, 1.0], [1.5, -0.5])


class TestSupMmd:
    def test_identical_functions(self):
        eta = ReturnDistFn((DiscreteMeasure.point([0.0]), DiscreteMeasure.point([1.0])))
        assert sup_mmd(eta, eta, SPEC) == 0.0

    def test_single_state_equals_mmd(self):
        p = ReturnDistFn((DiscreteMeasure.point([0.0]),))
        q = ReturnDistFn((DiscreteMeasure.point([0.7]),))
        assert sup_mmd(p, q, SPEC) == pytest.approx(mmd(p[0], q[0], SPEC))

    def test_takes_worst_state(self):
        # Point-mass gaps 0.04 and 0.25 give per-state MMDs 0.2 and 0.5.
        eta1 = ReturnDistFn((DiscreteMeasure.point([0.0]), DiscreteMeasure.point([0.0])))
        eta2 = ReturnDistFn(
            (DiscreteMeasure.point([0.04]), DiscreteMeasure.point([0.25]))
        )
        assert sup_mmd(eta1, eta2, SPEC) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        p = ReturnDistFn((DiscreteMeasure.point([0.0]),))
        q = ReturnDistFn((DiscreteMeasure.point([0.0]), DiscreteMeasure.point([0.0])))
        with pytest.raises(InvalidInputError):
            sup_mmd(p, q, SPEC)


class TestZeroshotScalar:
    def test_basis_vector_takes_coordinate(self):
        p = DiscreteMeasure(np.array([[1.0, 9.0], [2.0, 8.0]]), np.array([0.5, 0.5]))
        dist = zeroshot_scalar(p, [1.0, 0.0])
        np.testing.assert_allclose(dist.atoms, [1.0, 2.0])

    def test_zero_vector_collapses(self):
        p = DiscreteMeasure(np.array([[1.0, 9.0], [2.0, 8.0]]), np.array([0.5, 0.5]))
        dist = zeroshot_scalar(p, [0.0, 0.0])
        np.testing.assert_allclose(dist.atoms, [0.0])
        np.testing.assert_allclose(dist.weights, [1.0])

    def test_inner_products(self):
        p = DiscreteMeasure(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, 0.5]))
        dist = zeroshot_scalar(p, [1.0, 1.0])
        np.testing.assert_allclose(dist.atoms, [3.0, 7.0])
        np.testing.assert_allclose(dist.weights, [0.5, 0.5])

    def test_signed_weights_rejected(self):
        p = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
        with pytest.raises(InvalidInputError):
            zeroshot_scalar(p, [1.0])

    def test_commutes_with_mixtures(self):
        rng = rng_stream(0)
        for _ in range(10):
            p = random_probability_measure(rng, 4, 2)
            q = random_probability_measure(rng, 3, 2)
            lam = float(rng.uniform(0, 1))
            w = rng.normal(size=2)
            direct = zeroshot_scalar(mixture([(lam, p), (1 - lam, q)]), w)
            parts = mixture(
                [
                    (lam, zeroshot_scalar(p, w).to_measure()),
                    (1 - lam, zeroshot_scalar(q, w).to_measure()),
                ]
            )
            combined = ScalarDist(parts.atoms[:, 0], parts.weights)
            assert cramer_distance(direct, combined) <= 1e-9


class TestCramerDistance:
    def test_identical(self):
        rng = rng_stream(1)
        p = random_scalar_dist(rng)
        assert cramer_distance(p, p) == 0.0

    def test_unit_point_masses(self):
        assert cramer_distance(ScalarDist([0.0], [1.0]), ScalarDist([1.0], [1.0])) == pytest.approx(1.0)

    def test_uniform_vs_point(self):
        p = ScalarDist([0.0, 1.0], [0.5, 0.5])
        q = ScalarDist([0.0], [1.0])
        assert cramer_distance(p, q) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = rng_stream(2)
        for _ in range(10):
            p, q = random_scalar_dist(rng), random_scalar_dist(rng)
            assert cramer_distance(p, q) == pytest.approx(cramer_distance(q, p), abs=1e-14)

    def test_energy_equivalence(self):
        # Squared Cramer distance equals half the classical energy
        # distance, i.e. the squared energy-kernel MMD, for scalars.
        rng = rng_stream(3)
        for _ in range(50):
            p = random_scalar_dist(rng, n_atoms=int(rng.integers(1, 7)))
            q = random_scalar_dist(rng, n_atoms=int(rng.integers(1, 7)))
            energy_sq = 2.0 * mmd_squared(p.to_measure(), q.to_measure(), SPEC)
            assert cramer_distance(p, q) ** 2 == pytest.approx(
                0.5 * energy_sq, abs=1e-9
            )


@st.composite
def scalar_pairs(draw):
    """Two (atoms, weights) inputs over one pool of values, so that atoms
    tie exactly, within the merge tolerance and as +0.0 / -0.0, inside
    each input and across the two."""
    pool = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))
    atom = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.sampled_from(pool),
        st.builds(lambda a, k: a + k * 1e-13, st.sampled_from(pool + [0.0]), st.integers(-9, 9)),
        st.floats(-5.0, 5.0),
    )
    pair = []
    for _ in range(2):
        n = draw(st.integers(1, 40))
        atoms = np.array(draw(st.lists(atom, min_size=n, max_size=n)))
        if draw(st.booleans()):
            weights = np.full(n, 1.0 / n)
        else:
            counts = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
            weights = np.array(counts, dtype=np.float64) / sum(counts)
        pair.append((atoms, weights))
    return pair


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatchesReference:
    """The sorted fast paths give the reference bodies' bits exactly."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(scalar_pairs())
    def test_scalar_dist_and_cramer(self, pair):
        dists = []
        for atoms, weights in pair:
            dist = ScalarDist(atoms, weights)
            ref_atoms, ref_weights = reference_scalar_dist(atoms, weights)
            assert _same_bits(dist.atoms, ref_atoms)
            assert _same_bits(dist.weights, ref_weights)
            dists.append(dist)
        p, q = dists
        for a, b in ((p, q), (q, p), (p, p)):
            assert _same_bits(cramer_distance(a, b), reference_cramer_distance(a, b))

    def test_oracle_sized_inputs(self):
        rng = rng_stream(4)
        truth = rng.normal(size=10000).round(3)  # many exact ties
        truth[:6] = [-0.0, 0.0, 0.0, -0.0, 1e-13, 0.0]  # a zero heads its group
        p = ScalarDist(truth, np.full(truth.size, 1.0 / truth.size))
        assert _same_bits(p.atoms, reference_scalar_dist(truth, np.full(truth.size, 1e-4))[0])
        q = random_scalar_dist(rng, n_atoms=50)
        assert _same_bits(cramer_distance(q, p), reference_cramer_distance(q, p))


class TestMatchesMergeReference:
    """ScalarDist and cramer_distance give the bits of the bodies they
    replaced: plain-sorted atoms, np.round keys and one stable merge."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(scalar_pairs())
    def test_scalar_dist_and_cramer(self, pair):
        dists = []
        for atoms, weights in pair:
            dist = ScalarDist(atoms, weights)
            ref_atoms, ref_weights = reference_sorted_scalar_dist(atoms, weights)
            assert _same_bits(dist.atoms, ref_atoms)
            assert _same_bits(dist.weights, ref_weights)
            dists.append(dist)
        p, q = dists
        for a, b in ((p, q), (q, p), (p, p)):
            assert _same_bits(cramer_distance(a, b), reference_merged_cramer_distance(a, b))

    @pytest.mark.parametrize("case", ["ties", "zeros", "duplicates", "predicted-on-truth"])
    def test_oracle_sized_cases(self, case):
        rng = rng_stream(9)
        truth = rng.normal(size=10000)
        predicted = rng.normal(size=64)
        weights = rng.random(64)
        if case == "ties":  # within the merge tolerance, inside the truth
            truth[1::2] = truth[::2] + rng.integers(-4, 5, size=5000) * 1e-13
        elif case == "zeros":  # exact zeros of both signs on both sides
            truth[:40] = np.where(np.arange(40) % 2, 0.0, -0.0)
            predicted[:3] = [0.0, -0.0, 1e-13]
        elif case == "duplicates":  # repeated atoms, equal weights
            truth = np.repeat(truth[:2500], 4)
            predicted = np.repeat(predicted[:16], 4)
            weights = np.ones(64)
        else:  # every other predicted atom is a truth atom
            predicted[::2] = rng.choice(truth, size=32, replace=False)
            predicted[1] = truth.max()
            predicted[3] = truth.min()
        truth_weights = np.full(truth.size, 1.0 / truth.size)
        weights = weights / weights.sum()
        q = ScalarDist(truth, truth_weights)
        p = ScalarDist(predicted, weights)
        for dist, atoms, w in ((q, truth, truth_weights), (p, predicted, weights)):
            ref_atoms, ref_weights = reference_sorted_scalar_dist(atoms, w)
            assert _same_bits(dist.atoms, ref_atoms)
            assert _same_bits(dist.weights, ref_weights)
        for a, b in ((p, q), (q, p), (q, q)):
            assert _same_bits(cramer_distance(a, b), reference_merged_cramer_distance(a, b))
            assert _same_bits(cramer_distance(a, b), reference_cramer_distance(a, b))


class TestMcOracle:
    def test_self_loop_concentrates(self):
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        oracle = mc_oracle_fn(mdp, 50, 1e-6, rng_stream(4))[0]
        np.testing.assert_allclose(oracle.atoms, 1.0, atol=1e-6)

    def test_single_sample(self):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(5))
        oracle = mc_oracle_fn(mdp, 1, 1e-3, rng_stream(6))[0]
        assert oracle.n_atoms == 1

    def test_two_sample_stability(self):
        mdp = random_mdp(4, 1, 0.9, 1.0, rng_stream(7))
        n = 10_000
        a = mc_oracle_fn(mdp, n, 1e-3, rng_stream(8))[0]
        b = mc_oracle_fn(mdp, n, 1e-3, rng_stream(9))[0]
        # Scale of the sampling noise: mean within-sample semimetric over n.
        rho_bar = float(
            np.mean(pairwise_semimetric(a.atoms[:500], a.atoms[:500], SPEC.semimetric))
        )
        noise_scale = np.sqrt(2.0 * rho_bar / n)
        assert mmd(a, b, SPEC) <= 4.0 * noise_scale

    def test_mean_matches_analytic(self):
        mdp = random_mdp(4, 2, 0.9, 1.0, rng_stream(10))
        n = 100_000
        oracle = mc_oracle_fn(mdp, n, 1e-4, rng_stream(11))[2]
        expected = successor_feature_means(mdp)[2]
        se = oracle.atoms.std(axis=0, ddof=1) / np.sqrt(n)
        np.testing.assert_array_less(
            np.abs(oracle.atoms.mean(axis=0) - expected), 3 * se + 2e-4
        )

    def test_oracle_fn_covers_states(self):
        mdp = random_mdp(3, 1, 0.8, 1.0, rng_stream(12))
        eta = mc_oracle_fn(mdp, 100, 1e-3, rng_stream(13))
        assert eta.n_states == 3


class TestMmdUStatistic:
    def test_identical_point_sets_give_zero(self):
        samples = np.full((10, 2), 3.0)
        assert mmd_u_statistic(samples, samples, SPEC) == 0.0

    def test_equal_multisets_nonpositive(self):
        rng = rng_stream(14)
        for _ in range(10):
            samples = rng.normal(size=(int(rng.integers(2, 10)), 2))
            value = mmd_u_statistic(samples, samples, SPEC)
            n = samples.shape[0]
            offdiag = float(
                np.sum(pairwise_semimetric(samples, samples, SPEC.semimetric))
            ) / (n * (n - 1))
            assert value == pytest.approx(-offdiag / n, abs=1e-12)
            assert value <= 0.0

    def test_consistent_with_plug_in(self):
        rng = rng_stream(15)
        n = 600
        p_samples = rng.normal(size=(n, 1))
        q_samples = rng.normal(loc=0.5, size=(n, 1))
        u = mmd_u_statistic(p_samples, q_samples, SPEC)
        plug_in = mmd_squared(
            DiscreteMeasure(p_samples, np.full(n, 1 / n)),
            DiscreteMeasure(q_samples, np.full(n, 1 / n)),
            SPEC,
        )
        rho_bar = float(np.mean(np.abs(p_samples - p_samples.T)))
        assert abs(u - plug_in) <= 5 * rho_bar / n

    def test_requires_two_samples(self):
        with pytest.raises(InvalidInputError):
            mmd_u_statistic(np.zeros((1, 1)), np.zeros((5, 1)), SPEC)


class TestMeshAndBound:
    def test_point_domain_has_zero_mesh(self):
        mdp = TabularMDP(np.eye(1), np.array([[0.0]]), 0.5, r_max=0.0)
        support = SupportMap.constant(
            np.array([[0.0]]), 1, grid_axes=((0.0,),)
        )
        report = mesh_and_bound(support, mdp, SPEC)
        assert report.mesh == 0.0
        assert report.exact

    def test_uniform_grid_closed_form(self):
        mdp = TabularMDP(np.eye(1), np.array([[1.0]]), 0.9, r_max=1.0)
        support = SupportMap.uniform_grid(1, 1, 101, mdp.v_max)
        report = mesh_and_bound(support, mdp, SPEC)
        expected = 1.0 / ((1 - np.sqrt(0.9)) * np.sqrt(0.1) * np.sqrt(99.0))
        assert report.uniform_grid_bound == pytest.approx(expected, rel=1e-12)

    def test_doubling_resolution_scales_mesh(self):
        mdp = TabularMDP(np.eye(1), np.array([[1.0]]), 0.5, r_max=1.0)
        coarse = mesh_and_bound(
            SupportMap.uniform_grid(1, 1, 17, mdp.v_max), mdp, SPEC
        )
        fine = mesh_and_bound(
            SupportMap.uniform_grid(1, 1, 33, mdp.v_max), mdp, SPEC
        )
        assert coarse.mesh / fine.mesh == pytest.approx(2.0, rel=1e-9)

    def test_grid_mesh_exact_value(self):
        # 3x3 grid on [0, 2]^2: interior cell is the unit square.
        mdp = TabularMDP(np.eye(1), np.array([[1.0, 1.0]]), 0.5, r_max=1.0)
        support = SupportMap.uniform_grid(1, 2, 9, mdp.v_max)
        report = mesh_and_bound(support, mdp, SPEC)
        assert report.mesh == pytest.approx(np.sqrt(2.0))
        assert report.fixed_point_bound == pytest.approx(
            np.sqrt(np.sqrt(2.0)) / (1 - np.sqrt(0.5))
        )

    def test_non_grid_support_estimated(self):
        mdp = random_mdp(2, 2, 0.5, 1.0, rng_stream(16))
        support = SupportMap.random(2, 2, 30, mdp.v_max, rng_stream(17))
        report = mesh_and_bound(support, mdp, SPEC)
        assert not report.exact
        assert report.mesh > 0.0
        assert report.uniform_grid_bound is None

    def test_estimated_mesh_upper_bounds_grid_mesh(self):
        # The greedy estimate on an actual grid must dominate the exact
        # cell mesh.
        mdp = TabularMDP(np.eye(1), np.array([[1.0]]), 0.5, r_max=1.0)
        grid = SupportMap.uniform_grid(1, 1, 17, mdp.v_max)
        exact = mesh_and_bound(grid, mdp, SPEC)
        loose = mesh_and_bound(
            SupportMap.constant(grid[0], 1), mdp, SPEC
        )
        assert loose.mesh >= exact.mesh

    def test_atoms_outside_hypercube_rejected(self):
        mdp = TabularMDP(np.eye(1), np.array([[1.0]]), 0.5, r_max=1.0)
        support = SupportMap.constant(np.array([[0.0], [5.0]]), 1)
        with pytest.raises(InvalidInputError):
            mesh_and_bound(support, mdp, SPEC)
