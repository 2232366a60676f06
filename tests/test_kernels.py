"""Semimetric, induced-kernel, and MMD behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdrl import (
    ConsistencyError,
    DiscreteMeasure,
    InvalidInputError,
    KernelSpec,
    SemimetricSpec,
    energy_kernel,
    gram,
    kernel_eval,
    mmd,
    mmd_squared,
    semimetric_eval,
)
from mmdrl.kernels import merge_close_atoms, signed_energy_sum

from util import (
    random_probability_measure,
    random_signed_measure,
    reference_merge_close_atoms,
    reference_signed_energy_sum,
)


class TestSemimetric:
    def test_three_four_five(self):
        spec = SemimetricSpec(1.0)
        assert semimetric_eval(spec, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_identity_any_alpha(self):
        rng = np.random.default_rng(0)
        for alpha in (0.3, 1.0, 1.7):
            y = rng.normal(size=4)
            assert semimetric_eval(SemimetricSpec(alpha), y, y) == 0.0

    def test_unit_distance_any_power(self):
        assert semimetric_eval(SemimetricSpec(1.5), [0.0], [1.0]) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        spec = SemimetricSpec(0.7)
        for _ in range(20):
            a, b = rng.normal(size=(2, 3))
            assert semimetric_eval(spec, a, b) == semimetric_eval(spec, b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            semimetric_eval(SemimetricSpec(1.0), [0.0], [0.0, 1.0])

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
    def test_exponent_range(self, alpha):
        with pytest.raises(InvalidInputError):
            SemimetricSpec(alpha)


class TestKernelEval:
    def test_reference_point_maps_to_zero(self):
        rng = np.random.default_rng(2)
        y0 = rng.normal(size=3)
        spec = KernelSpec(SemimetricSpec(1.3), y0)
        for _ in range(10):
            y = rng.normal(size=3)
            assert kernel_eval(spec, y0, y) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_equals_distance_to_reference(self):
        rng = np.random.default_rng(3)
        spec = energy_kernel(1.0)
        y = rng.normal(size=2)
        assert kernel_eval(spec, y, y) == pytest.approx(np.linalg.norm(y))

    def test_hand_value(self):
        # d=1, alpha=1, y0=0: kappa(1,2) = (1 + 2 - 1)/2 = 1.
        spec = energy_kernel(1.0)
        assert kernel_eval(spec, [1.0], [2.0]) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        spec = KernelSpec(SemimetricSpec(0.8), rng.normal(size=2))
        for _ in range(20):
            a, b = rng.normal(size=(2, 2))
            assert kernel_eval(spec, a, b) == pytest.approx(kernel_eval(spec, b, a))

    def test_reference_dimension_checked(self):
        spec = KernelSpec(SemimetricSpec(1.0), np.zeros(3))
        with pytest.raises(InvalidInputError):
            kernel_eval(spec, [0.0], [1.0])


class TestGram:
    def test_single_atom(self):
        spec = energy_kernel(1.0)
        k = gram(np.array([[2.0, 0.0]]), spec)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(2.0)

    def test_reference_atom_row_vanishes(self):
        spec = energy_kernel(1.0)
        k = gram(np.array([[0.0], [3.0]]), spec)
        np.testing.assert_allclose(k, [[0.0, 0.0], [0.0, 3.0]], atol=1e-12)

    def test_hand_matrix(self):
        spec = energy_kernel(1.0)
        k = gram(np.array([[0.0], [1.0], [2.0]]), spec)
        np.testing.assert_allclose(
            k, [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]], atol=1e-12
        )

    def test_symmetric_with_semimetric_diagonal(self):
        rng = np.random.default_rng(5)
        spec = KernelSpec(SemimetricSpec(1.4), rng.normal(size=3))
        atoms = rng.normal(size=(7, 3))
        k = gram(atoms, spec)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        for i in range(7):
            rho = semimetric_eval(spec.semimetric, atoms[i], spec.reference_point)
            assert k[i, i] == pytest.approx(rho)


class TestMmdSquared:
    def test_identity(self):
        rng = np.random.default_rng(6)
        spec = energy_kernel(1.0)
        p = random_probability_measure(rng, 5, 2)
        assert mmd_squared(p, p, spec) == 0.0

    def test_point_masses(self):
        spec = energy_kernel(1.0)
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure.point([1.0])
        assert mmd_squared(p, q, spec) == pytest.approx(1.0)

    def test_uniform_vs_midpoint(self):
        spec = energy_kernel(1.0)
        p = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        q = DiscreteMeasure.point([0.5])
        assert mmd_squared(p, q, spec) == pytest.approx(0.25)

    def test_mass_checked(self):
        spec = energy_kernel(1.0)
        p = DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))
        q = DiscreteMeasure.point([1.0])
        with pytest.raises(InvalidInputError):
            mmd_squared(p, q, spec)

    def test_dimension_checked(self):
        spec = energy_kernel(1.0)
        with pytest.raises(InvalidInputError):
            mmd_squared(DiscreteMeasure.point([0.0]), DiscreteMeasure.point([0.0, 1.0]), spec)

    def test_negative_beyond_roundoff_raises(self, monkeypatch):
        # Force the quadratic form negative beyond the clamp window and
        # check the guard fires instead of silently clamping.
        from mmdrl import kernels as kernels_module

        spec = energy_kernel(1.0)
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure.point([1.0])
        monkeypatch.setattr(
            kernels_module, "signed_energy_sum", lambda *a, **k: 1e-6
        )
        with pytest.raises(ConsistencyError):
            kernels_module.mmd_squared(p, q, spec)

    def test_roundoff_negative_clamped(self, monkeypatch):
        from mmdrl import kernels as kernels_module

        spec = energy_kernel(1.0)
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure.point([1.0])
        monkeypatch.setattr(
            kernels_module, "signed_energy_sum", lambda *a, **k: 1e-13
        )
        assert kernels_module.mmd_squared(p, q, spec) == 0.0

    def test_reference_point_independence(self):
        # The quadratic form with any reference point matches the
        # reference-free evaluation.
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            p = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
            q = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
            base = mmd_squared(p, q, energy_kernel(1.0))
            for _ in range(2):
                y0 = rng.normal(size=dim)
                spec = KernelSpec(SemimetricSpec(1.0), y0)
                atoms = np.concatenate([p.atoms, q.atoms])
                w = np.concatenate([p.weights, -q.weights])
                quad = float(w @ gram(atoms, spec) @ w)
                assert abs(base - quad) <= 1e-10

    def test_quadratic_form_on_merged_atoms(self):
        rng = np.random.default_rng(8)
        spec = energy_kernel(1.0)
        for _ in range(25):
            dim = int(rng.integers(1, 3))
            p = random_probability_measure(rng, int(rng.integers(1, 5)), dim)
            q = random_probability_measure(rng, int(rng.integers(1, 5)), dim)
            atoms = np.concatenate([p.atoms, q.atoms])
            w = np.concatenate([p.weights, -q.weights])
            merged_atoms, merged_w = merge_close_atoms(atoms, w)
            quad = float(merged_w @ gram(merged_atoms, spec) @ merged_w)
            assert mmd_squared(p, q, spec) == pytest.approx(quad, abs=1e-10)

    def test_triangle_inequality_signed(self):
        rng = np.random.default_rng(9)
        spec = energy_kernel(1.0)
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            p = random_signed_measure(rng, int(rng.integers(1, 5)), dim)
            q = random_signed_measure(rng, int(rng.integers(1, 5)), dim)
            r = random_signed_measure(rng, int(rng.integers(1, 5)), dim)
            assert mmd(p, q, spec) <= mmd(p, r, spec) + mmd(r, q, spec) + 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_fast_path_matches_brute_force(self, alpha):
        rng = np.random.default_rng(10)
        for _ in range(15):
            n = int(rng.integers(2, 12))
            atoms = rng.normal(size=(n, 1))
            w = rng.normal(size=n)
            fast = signed_energy_sum(atoms, w, alpha)
            brute = 0.0
            for i in range(n):
                for j in range(n):
                    brute += w[i] * w[j] * abs(atoms[i, 0] - atoms[j, 0]) ** alpha
            assert fast == pytest.approx(brute, abs=1e-10)


def difference_tensor_energy_sum(atoms, weights, alpha):
    """The blocked evaluation signed_energy_sum used before it summed
    squared distances per coordinate: an einsum over the full
    ``(rows, n, d)`` difference tensor."""
    from mmdrl import kernels as kernels_module

    n = atoms.shape[0]
    block = max(1, kernels_module._BLOCK_ENTRIES // n)
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = atoms[start:stop, None, :] - atoms[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if alpha != 1.0:
            dist **= alpha
        total += float(weights[start:stop] @ dist @ weights)
    return total


class TestSignedEnergySumBlocks:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        from mmdrl import kernels as kernels_module

        # 256 entries: 2 to 15 rows per block, several blocks per call; 64
        # entries: 1 to 3 rows per slab, so a block spans several slabs and
        # copies a mirrored region.
        monkeypatch.setattr(kernels_module, "_BLOCK_ENTRIES", 256)
        monkeypatch.setattr(kernels_module, "_SLAB_ENTRIES", 64)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_bitwise_equal_at_d2(self, alpha):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(17, 120))
            atoms = rng.normal(size=(n, 2)) * rng.choice([1e-3, 1.0, 1e3])
            w = rng.normal(size=n)
            assert n > 256 // n
            assert signed_energy_sum(atoms, w, alpha) == difference_tensor_energy_sum(
                atoms, w, alpha
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_bitwise_equal_at_d1(self, alpha):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(17, 90))
            atoms = rng.normal(size=(n, 1))
            w = rng.normal(size=n)
            assert signed_energy_sum(atoms, w, alpha) == difference_tensor_energy_sum(
                atoms, w, alpha
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_close_at_d3(self, alpha):
        # The coordinates are summed in another order, so only round-off
        # separates the two evaluations.
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(17, 90))
            atoms = rng.normal(size=(n, 3))
            w = rng.uniform(0.1, 1.0, size=n)
            ref = difference_tensor_energy_sum(atoms, w, alpha)
            got = signed_energy_sum(atoms, w, alpha)
            assert abs(got - ref) <= 1e-12 * abs(ref)
            assert got == reference_signed_energy_sum(atoms, w, alpha)


@st.composite
def atom_rows(draw):
    """(atoms, weights) at d = 1, 2 or 3 whose rows repeat exactly, differ by
    less than the merge tolerance or only in the sign of a zero."""
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3))
    coord = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.sampled_from(pool),
        st.builds(lambda a, k: a + k * 1e-13, st.sampled_from(pool + [0.0]), st.integers(-9, 9)),
        st.floats(-5.0, 5.0),
    )
    row = st.lists(coord, min_size=d, max_size=d)
    seen = draw(st.lists(row, min_size=1, max_size=5))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.one_of(st.sampled_from(seen), row), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64).reshape(n, d), np.array(weights)


class TestMergeCloseAtoms:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(atom_rows())
    def test_matches_unique_reference(self, case):
        atoms, weights = case
        got_atoms, got_weights = merge_close_atoms(atoms, weights)
        ref_atoms, ref_weights = reference_merge_close_atoms(atoms, weights)
        assert got_atoms.shape == ref_atoms.shape
        assert got_atoms.tobytes() == ref_atoms.tobytes()
        assert got_weights.tobytes() == ref_weights.tobytes()
