"""Discrete measures, pushforwards, mixtures, and support maps."""

import json

import numpy as np
import pytest

from mmdrl import (
    DiscreteMeasure,
    InvalidInputError,
    ReturnDistFn,
    SupportMap,
    as_probability,
    empirical,
    energy_kernel,
    gram,
    mixture,
    mmd,
    mmd_squared,
    pushforward,
    weights_on_support,
)

from util import random_probability_measure


class TestDiscreteMeasure:
    def test_scalar_atoms_promoted(self):
        p = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert p.atoms.shape == (2, 1)
        assert p.dim == 1

    def test_immutable(self):
        p = DiscreteMeasure.point([1.0, 2.0])
        with pytest.raises(ValueError):
            p.atoms[0, 0] = 5.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(np.zeros((2, 1)), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))

    def test_json_round_trip(self):
        p = DiscreteMeasure(np.array([[0.5, 1.5], [2.0, 0.0]]), np.array([0.3, 0.7]))
        payload = json.loads(json.dumps(p.to_json()))
        q = DiscreteMeasure.from_json(payload)
        np.testing.assert_array_equal(p.atoms, q.atoms)
        np.testing.assert_array_equal(p.weights, q.weights)

    @pytest.mark.parametrize(
        "payload",
        [{"dim": 1, "weights": [1.0]}, [{"dim": 1, "atoms": [[0.0]], "weights": [1.0]}]],
        ids=["no-atoms", "list"],
    )
    def test_from_json_rejects_malformed_payload(self, payload):
        # These used to raise a bare KeyError and a TypeError.
        with pytest.raises(InvalidInputError):
            DiscreteMeasure.from_json(payload)

    def test_as_probability_clamps(self):
        p = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0 + 1e-13, -1e-13]))
        q = as_probability(p)
        assert np.all(q.weights >= 0.0)
        assert q.mass == pytest.approx(1.0)

    def test_as_probability_rejects_signed(self):
        p = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
        with pytest.raises(InvalidInputError):
            as_probability(p)


class TestPushforward:
    def test_identity_scale_rejected(self):
        p = DiscreteMeasure.point([0.0])
        with pytest.raises(InvalidInputError):
            pushforward(p, [0.0], 1.0)

    def test_fixed_point_of_affine_map(self):
        p = DiscreteMeasure.point([2.0, 0.0])
        out = pushforward(p, [1.0, 0.0], 0.5)
        np.testing.assert_allclose(out.atoms, [[2.0, 0.0]])
        np.testing.assert_array_equal(out.weights, p.weights)

    def test_atomwise_map(self):
        p = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        out = pushforward(p, [1.0], 0.5)
        np.testing.assert_allclose(out.atoms, [[1.0], [1.5]])

    def test_mass_preserved_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_probability_measure(rng, int(rng.integers(1, 8)), 2)
            out = pushforward(p, rng.normal(size=2), float(rng.uniform(0, 0.99)))
            assert abs(out.mass - p.mass) <= 1e-12

    def test_contraction_mechanics(self):
        # Pushing both measures through the same affine map contracts MMD
        # by at least scale^(alpha/2).
        rng = np.random.default_rng(1)
        for alpha in (0.5, 1.0, 1.5):
            spec = energy_kernel(alpha)
            for _ in range(20):
                dim = int(rng.integers(1, 3))
                p = random_probability_measure(rng, int(rng.integers(1, 6)), dim)
                q = random_probability_measure(rng, int(rng.integers(1, 6)), dim)
                shift = rng.normal(size=dim)
                scale = float(rng.uniform(0.0, 0.99))
                lhs = mmd(pushforward(p, shift, scale), pushforward(q, shift, scale), spec)
                assert lhs <= scale ** (alpha / 2.0) * mmd(p, q, spec) + 1e-9


class TestMixture:
    def test_single_component(self):
        p = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.25, 0.75]))
        out = mixture([(1.0, p)])
        np.testing.assert_array_equal(out.atoms, p.atoms)
        np.testing.assert_array_equal(out.weights, p.weights)

    def test_duplicate_atoms_merge(self):
        p = DiscreteMeasure.point([0.0])
        out = mixture([(0.5, p), (0.5, p)])
        assert out.n_atoms == 1
        assert out.mass == pytest.approx(1.0)

    def test_weight_arithmetic(self):
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        out = mixture([(0.3, p), (0.7, q)])
        order = np.argsort(out.atoms[:, 0])
        np.testing.assert_allclose(out.atoms[order], [[0.0], [1.0]])
        np.testing.assert_allclose(out.weights[order], [0.65, 0.35])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            mixture([])

    def test_coefficients_must_sum_to_one(self):
        p = DiscreteMeasure.point([0.0])
        with pytest.raises(InvalidInputError):
            mixture([(0.5, p), (0.4, p)])

    def test_embedding_linearity(self):
        # The mixture's MMD to a third measure equals the quadratic form
        # evaluated on the stacked atoms directly.
        rng = np.random.default_rng(2)
        spec = energy_kernel(1.0)
        for _ in range(20):
            dim = int(rng.integers(1, 3))
            p = random_probability_measure(rng, int(rng.integers(1, 5)), dim)
            q = random_probability_measure(rng, int(rng.integers(1, 5)), dim)
            r = random_probability_measure(rng, int(rng.integers(1, 5)), dim)
            lam = float(rng.uniform(0, 1))
            mix = mixture([(lam, p), (1.0 - lam, q)])
            atoms = np.concatenate([p.atoms, q.atoms, r.atoms])
            w = np.concatenate(
                [lam * p.weights, (1.0 - lam) * q.weights, -r.weights]
            )
            quad = float(w @ gram(atoms, spec) @ w)
            assert mmd_squared(mix, r, spec) == pytest.approx(max(quad, 0.0), abs=1e-10)

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_probability_measure(rng, 4, 1)
            q = random_probability_measure(rng, 3, 1)
            lam = float(rng.uniform(0, 1))
            out = mixture([(lam, p), (1.0 - lam, q)])
            assert abs(out.mass - 1.0) <= 1e-12


class TestEmpirical:
    def test_single_sample(self):
        out = empirical([[1.5, 0.5]])
        np.testing.assert_array_equal(out.atoms, [[1.5, 0.5]])
        np.testing.assert_array_equal(out.weights, [1.0])

    def test_duplicates_keep_slots(self):
        out = empirical([0.0, 0.0, 1.0])
        assert out.n_atoms == 3
        np.testing.assert_allclose(out.weights, [1 / 3, 1 / 3, 1 / 3])
        assert out.mass == pytest.approx(1.0)

    def test_quarter_weights(self):
        rng = np.random.default_rng(4)
        out = empirical(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(out.weights, [0.25] * 4)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            empirical(np.zeros((0, 2)))


class TestReturnDistFn:
    def test_mass_enforced_per_state(self):
        bad = DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))
        with pytest.raises(InvalidInputError):
            ReturnDistFn((bad,))

    def test_common_dimension_enforced(self):
        with pytest.raises(InvalidInputError):
            ReturnDistFn((DiscreteMeasure.point([0.0]), DiscreteMeasure.point([0.0, 1.0])))

    def test_json_round_trip(self, tmp_path):
        eta = ReturnDistFn(
            (
                DiscreteMeasure.point([0.0, 1.0]),
                DiscreteMeasure(np.array([[0.1, -1 / 3], [2.0, 3e-17]]), np.array([0.7, 0.3])),
            )
        )
        path = tmp_path / "eta.json"
        eta.save(path)
        loaded = ReturnDistFn.load(path)
        assert loaded.n_states == 2
        np.testing.assert_array_equal(loaded[1].atoms, eta[1].atoms)
        # save writes through json.dumps; the bytes are json.dump's.
        with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
            json.dump(eta.to_json(), fh)
        assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()

    def test_replace(self):
        eta = ReturnDistFn((DiscreteMeasure.point([0.0]), DiscreteMeasure.point([1.0])))
        out = eta.replace(1, DiscreteMeasure.point([5.0]))
        assert out[1].atoms[0, 0] == 5.0
        assert eta[1].atoms[0, 0] == 1.0


class TestSupportMap:
    def test_uniform_grid_counts(self):
        support = SupportMap.uniform_grid(3, 2, 16, 1.0)
        assert support.n_states == 3
        assert support.sizes() == [16, 16, 16]
        assert support.grid_axes is not None

    def test_grid_row_major_order(self):
        support = SupportMap.uniform_grid(1, 2, 4, 1.0)
        np.testing.assert_allclose(
            support[0], [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        )

    def test_simplex_grid_count(self):
        support = SupportMap.simplex_grid(1, 3, 10)
        assert support.sizes() == [66]
        np.testing.assert_allclose(support[0].sum(axis=1), 1.0)

    def test_simplex_grid_scalar_dim(self):
        support = SupportMap.simplex_grid(1, 1, 7)
        np.testing.assert_allclose(support[0], [[1.0]])

    def test_distinctness_enforced(self):
        with pytest.raises(InvalidInputError):
            SupportMap((np.array([[0.0], [1e-10]]),))

    @pytest.mark.parametrize(
        "atoms", [0.5, [[[0.0]], [[1.0]]], [[]]], ids=["scalar", "nested-3d", "zero-dim"]
    )
    def test_atoms_must_be_n_by_d(self, atoms):
        # A 3-d array used to reach the einsum in pairwise_semimetric, and
        # d = 0 a reduction over no coordinates.
        with pytest.raises(InvalidInputError, match=r"state 1 must be \(n, d\) with d >= 1"):
            SupportMap(([[0.0], [1.0]], atoms))

    def test_needs_a_state(self):
        with pytest.raises(InvalidInputError, match="at least one state"):
            SupportMap(())

    def test_random_supports_distinct(self):
        rng = np.random.default_rng(5)
        support = SupportMap.random(2, 2, 50, 1.0, rng)
        assert support.sizes() == [50, 50]

    def test_weights_on_support(self):
        support_atoms = np.array([[0.0], [1.0], [2.0]])
        p = DiscreteMeasure(np.array([[2.0], [0.0]]), np.array([0.25, 0.75]))
        w = weights_on_support(p, support_atoms)
        np.testing.assert_allclose(w, [0.75, 0.0, 0.25])

    def test_weights_on_support_rejects_outside(self):
        support_atoms = np.array([[0.0], [1.0]])
        p = DiscreteMeasure.point([0.5])
        with pytest.raises(InvalidInputError):
            weights_on_support(p, support_atoms)
        # Measures of another dimension. Before, the first broadcast against
        # the d = 1 atoms and read as weights [1, 0], the second raised
        # numpy's broadcast ValueError.
        for p, atoms in ((DiscreteMeasure.point([0.0, 0.0]), support_atoms),
                         (DiscreteMeasure.point([0.0, 0.0, 0.0]), np.zeros((2, 2)))):
            with pytest.raises(InvalidInputError, match="dimension mismatch"):
                weights_on_support(p, atoms)
