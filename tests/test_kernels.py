"""Semimetric, induced-kernel, and MMD behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdrl import (
    ConsistencyError,
    DiscreteMeasure,
    InvalidInputError,
    KernelSpec,
    gram,
    mmd,
    mmd_squared,
)
from mmdrl.kernels import (
    cross_kernel,
    merge_close_atoms,
    pairwise_semimetric,
    signed_cross_sum,
    signed_energy_sum,
)

from util import (
    random_probability_measure,
    random_signed_measure,
    reference_merge_close_atoms,
    reference_signed_cross_sum,
    reference_signed_energy_sum,
    semimetric_matrix,
)


class TestSemimetric:
    def test_three_four_five(self):
        rho = pairwise_semimetric([[0.0, 0.0]], [[3.0, 4.0]], KernelSpec(1.0))
        assert rho.shape == (1, 1)
        assert rho[0, 0] == pytest.approx(5.0)

    def test_identity_any_alpha(self):
        rng = np.random.default_rng(0)
        for alpha in (0.3, 1.0, 1.7):
            y = rng.normal(size=(1, 4))
            assert pairwise_semimetric(y, y, KernelSpec(alpha))[0, 0] == 0.0

    def test_unit_distance_any_power(self):
        rho = pairwise_semimetric([[0.0]], [[1.0]], KernelSpec(1.5))
        assert rho[0, 0] == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec(0.7)
        for _ in range(20):
            a, b = rng.normal(size=(2, 5, 3))
            assert np.array_equal(
                pairwise_semimetric(a, b, spec), pairwise_semimetric(b, a, spec).T
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_self_matrix_exactly_symmetric_with_zero_diagonal(self, dim, alpha):
        # gram relies on this: it is -rho / 2 with no symmetrisation.
        rng = np.random.default_rng(dim)
        spec = KernelSpec(alpha)
        for _ in range(20):
            atoms = rng.normal(size=(int(rng.integers(1, 12)), dim)) * 10.0 ** rng.integers(-3, 4)
            rho = pairwise_semimetric(atoms, atoms, spec)
            assert np.array_equal(rho, rho.T)
            assert np.all(np.diag(rho) == 0.0)

    def test_hand_values_match_norm(self):
        rng = np.random.default_rng(2)
        for alpha in (0.5, 1.0, 1.5):
            a, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
            rho = pairwise_semimetric(a, b, KernelSpec(alpha))
            np.testing.assert_allclose(rho, semimetric_matrix(a, b, alpha), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            pairwise_semimetric([[0.0]], [[0.0, 1.0]], KernelSpec(1.0))

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.5])
    def test_exponent_range(self, alpha):
        with pytest.raises(InvalidInputError):
            KernelSpec(alpha)


class TestKernelEval:
    """Kernel entries as ``cross_kernel`` gives them, and the check of a
    configured reference point, which no result depends on."""

    def test_hand_value(self):
        # d=1, alpha=1: -rho(1, 2) / 2 = -1/2.
        k = cross_kernel([[1.0]], [[2.0]], KernelSpec(1.0))
        assert k[0, 0] == pytest.approx(-0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        spec = KernelSpec(0.8)
        for _ in range(20):
            a, b = rng.normal(size=(2, 3, 2))
            assert np.array_equal(cross_kernel(a, b, spec), cross_kernel(b, a, spec).T)


class TestGram:
    def test_single_atom(self):
        spec = KernelSpec(1.0)
        k = gram(np.array([[2.0, 0.0]]), spec)
        assert k.shape == (1, 1)
        assert k[0, 0] == 0.0

    def test_reference_atom_row_vanishes(self):
        # Recentred at atom 0, -rho / 2 becomes the kernel with reference
        # point 0, whose row at the reference vanishes; the signed
        # projector's reduced system is this recentring at its last atom.
        spec = KernelSpec(1.0)
        k = gram(np.array([[0.0], [3.0]]), spec)
        np.testing.assert_allclose(k, [[0.0, -1.5], [-1.5, 0.0]], atol=1e-12)
        recentred = k - k[:, :1] - k[:1, :] + k[0, 0]
        np.testing.assert_allclose(recentred, [[0.0, 0.0], [0.0, 3.0]], atol=1e-12)

    def test_hand_matrix(self):
        spec = KernelSpec(1.0)
        k = gram(np.array([[0.0], [1.0], [2.0]]), spec)
        np.testing.assert_allclose(
            k, [[0.0, -0.5, -1.0], [-0.5, 0.0, -0.5], [-1.0, -0.5, 0.0]], atol=1e-12
        )

    def test_symmetric_with_semimetric_diagonal(self):
        # The diagonal is -rho(xi_i, xi_i) / 2 = 0.
        rng = np.random.default_rng(5)
        spec = KernelSpec(1.4)
        atoms = rng.normal(size=(7, 3))
        k = gram(atoms, spec)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 0.0)
        np.testing.assert_allclose(k, -0.5 * semimetric_matrix(atoms, atoms, 1.4), rtol=1e-14)


class TestMmdSquared:
    def test_identity(self):
        rng = np.random.default_rng(6)
        spec = KernelSpec(1.0)
        p = random_probability_measure(rng, 5, 2)
        assert mmd_squared(p, p, spec) == 0.0

    def test_point_masses(self):
        spec = KernelSpec(1.0)
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure.point([1.0])
        assert mmd_squared(p, q, spec) == pytest.approx(1.0)

    def test_uniform_vs_midpoint(self):
        spec = KernelSpec(1.0)
        p = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        q = DiscreteMeasure.point([0.5])
        assert mmd_squared(p, q, spec) == pytest.approx(0.25)

    def test_mass_checked(self):
        spec = KernelSpec(1.0)
        p = DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))
        q = DiscreteMeasure.point([1.0])
        with pytest.raises(InvalidInputError):
            mmd_squared(p, q, spec)

    def test_points_past_the_merge_range_refused(self):
        # 1e300 and 1e307 would share the infinite key and read MMD 0.
        with pytest.raises(InvalidInputError, match="merge"):
            mmd(DiscreteMeasure.point([1e300]), DiscreteMeasure.point([1e307]), KernelSpec(1.0))

    def test_dimension_checked(self):
        spec = KernelSpec(1.0)
        with pytest.raises(InvalidInputError):
            mmd_squared(DiscreteMeasure.point([0.0]), DiscreteMeasure.point([0.0, 1.0]), spec)

    def test_negative_beyond_roundoff_raises(self, monkeypatch):
        # Force the quadratic form negative beyond the clamp window and
        # check the guard fires instead of silently clamping.
        from mmdrl import kernels as kernels_module

        spec = KernelSpec(1.0)
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure.point([1.0])
        monkeypatch.setattr(
            kernels_module, "signed_energy_sum", lambda *a, **k: 1e-6
        )
        with pytest.raises(ConsistencyError):
            kernels_module.mmd_squared(p, q, spec)

    def test_roundoff_negative_clamped(self, monkeypatch):
        from mmdrl import kernels as kernels_module

        spec = KernelSpec(1.0)
        p = DiscreteMeasure.point([0.0])
        q = DiscreteMeasure.point([1.0])
        monkeypatch.setattr(
            kernels_module, "signed_energy_sum", lambda *a, **k: 1e-13
        )
        assert kernels_module.mmd_squared(p, q, spec) == 0.0

    def test_reference_point_independence(self):
        # The quadratic form of the kernel with any reference point y0,
        # (rho(a, y0) + rho(b, y0) - rho(a, b)) / 2 built from raw norms,
        # matches the reference-free evaluation on equal masses.
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            p = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
            q = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
            base = mmd_squared(p, q, KernelSpec(1.0))
            atoms = np.concatenate([p.atoms, q.atoms])
            w = np.concatenate([p.weights, -q.weights])
            for _ in range(2):
                to_y0 = semimetric_matrix(atoms, rng.normal(size=dim), 1.0)[:, 0]
                k = 0.5 * (to_y0[:, None] + to_y0[None, :] - semimetric_matrix(atoms, atoms, 1.0))
                assert abs(base - float(w @ k @ w)) <= 1e-10

    def test_quadratic_form_on_merged_atoms(self):
        rng = np.random.default_rng(8)
        spec = KernelSpec(1.0)
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
        spec = KernelSpec(1.0)
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

        # 256 entries: 2 to 15 rows per block, several blocks per call, so
        # every sum has diagonal blocks and blocks past them.
        monkeypatch.setattr(kernels_module, "_BLOCK_ENTRIES", 256)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_bitwise_equal_at_d2(self, alpha):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(17, 120))
            atoms = rng.normal(size=(n, 2)) * rng.choice([1e-3, 1.0, 1e3])
            w = rng.normal(size=n)
            assert n > 256 // n
            got = signed_energy_sum(atoms, w, alpha)
            assert got == reference_signed_energy_sum(atoms, w, alpha)
            # The full-row order of the difference tensor differs at round-off.
            ref = difference_tensor_energy_sum(atoms, w, alpha)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_bitwise_equal_at_d1(self, alpha):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(17, 90))
            atoms = rng.normal(size=(n, 1))
            w = rng.normal(size=n)
            got = signed_energy_sum(atoms, w, alpha)
            assert got == reference_signed_energy_sum(atoms, w, alpha)
            ref = difference_tensor_energy_sum(atoms, w, alpha)
            assert abs(got - ref) <= 1e-12 * abs(ref)

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


class TestSignedCrossSum:
    @pytest.mark.parametrize("block_entries", [2**22, 256, 7])
    @pytest.mark.parametrize("dim, alpha", [(1, 0.5), (1, 1.5), (2, 0.5), (2, 1.0), (2, 1.5), (3, 1.0)])
    def test_bitwise_equal_to_dense_reference(self, monkeypatch, block_entries, dim, alpha):
        from mmdrl import kernels as kernels_module

        monkeypatch.setattr(kernels_module, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(14)
        for _ in range(20):
            na, nb = (int(n) for n in rng.integers(1, 60, size=2))
            a = rng.normal(size=(na, dim)) * rng.choice([1e-3, 1.0, 1e6])
            b = rng.normal(size=(nb, dim))
            wa, wb = rng.normal(size=na), rng.normal(size=nb)
            got = signed_cross_sum(a, wa, b, wb, alpha)
            assert got == reference_signed_cross_sum(a, wa, b, wb, alpha)

    # Small integers and dyadic weights make every partial sum exact on both
    # routes, so ties, -0.0 against 0.0 and repeated atoms must give the
    # exact value.
    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.0], [-0.0]),
            ([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]),
            ([2.0, 2.0, -3.0], [2.0, -3.0, 2.0, 5.0]),
            ([1.0, 1.0, 1.0], [1.0]),
            ([-4.0, 7.0, 0.0, 7.0], [7.0, -0.0, -4.0]),
        ],
    )
    def test_scalar_route_exact_with_ties_and_signed_zeros(self, a, b):
        rng = np.random.default_rng(15)
        a, b = np.array(a)[:, None], np.array(b)[:, None]
        for _ in range(10):
            wa = rng.integers(-8, 9, size=a.shape[0]) / 8.0
            wb = rng.integers(-8, 9, size=b.shape[0]) / 16.0
            exact = sum(
                float(x) * float(y) * abs(float(p) - float(q))
                for x, p in zip(wa, a[:, 0])
                for y, q in zip(wb, b[:, 0])
            )
            assert signed_cross_sum(a, wa, b, wb, 1.0) == exact
            assert reference_signed_cross_sum(a, wa, b, wb, 1.0) == exact
            assert signed_cross_sum(b, wb, a, wa, 1.0) == exact

    def test_scalar_route_matches_dense(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            na, nb = (int(n) for n in rng.integers(1, 80, size=2))
            a = rng.choice(rng.normal(size=5), size=(na, 1)) + rng.normal(size=(na, 1)) * (rng.random() < 0.5)
            b = np.concatenate([a[: nb // 2], rng.normal(size=(nb - nb // 2, 1))])
            wa, wb = rng.normal(size=na), rng.normal(size=b.shape[0])
            dense = reference_signed_cross_sum(a, wa, b, wb, 1.0)
            scale = np.sum(np.abs(wa)) * np.sum(np.abs(wb)) * (np.max(np.abs(a)) + np.max(np.abs(b)))
            assert abs(signed_cross_sum(a, wa, b, wb, 1.0) - dense) <= 1e-13 * scale

    @pytest.mark.parametrize("dim, alpha", [(1, 1.0), (1, 0.5), (2, 1.0), (3, 1.5)])
    def test_joint_energy_splits_into_self_and_cross(self, monkeypatch, dim, alpha):
        # S(a + b) = S(a) + S(b) + 2 C(a, b), for positive weights on both and
        # for signed ones, within round-off of the sum of |w_i w_j| rho_ij.
        # With 256 entries the sums span 3 to 14 row blocks.
        from mmdrl import kernels as kernels_module

        rng = np.random.default_rng(17)
        for budget, signed in [(kernels_module._BLOCK_ENTRIES, False), (256, False), (256, True)]:
            monkeypatch.setattr(kernels_module, "_BLOCK_ENTRIES", budget)
            for _ in range(10):
                a, b = rng.normal(size=(23, dim)), rng.normal(size=(31, dim))
                wa, wb = rng.uniform(0.1, 1.0, size=23), rng.uniform(0.1, 1.0, size=31)
                if signed:
                    wa, wb = wa * rng.choice([-1.0, 1.0], 23), wb * rng.choice([-1.0, 1.0], 31)
                atoms, weights = np.concatenate([a, b]), np.concatenate([wa, wb])
                joint = signed_energy_sum(atoms, weights, alpha)
                split = (
                    signed_energy_sum(a, wa, alpha)
                    + signed_energy_sum(b, wb, alpha)
                    + 2.0 * signed_cross_sum(a, wa, b, wb, alpha)
                )
                scale = signed_energy_sum(atoms, np.abs(weights), alpha)
                assert abs(split - joint) <= 1e-12 * scale


def peak_traced_bytes(call):
    """The most memory ``call()`` holds at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    # Besides the two blocks: the contiguous coordinate rows a block is
    # filled from ((rows + n) d doubles), the products' vectors of length
    # n and small bookkeeping.
    SLACK = 256 * 1024

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_sums_hold_at_most_two_blocks(self, alpha):
        from mmdrl import kernels as kernels_module

        rng = np.random.default_rng(18)
        a, b = rng.normal(size=(2, 3000, 2))
        wa, wb = rng.normal(size=(2, 3000))
        bound = 2 * kernels_module._BLOCK_ENTRIES * 8 + self.SLACK
        # Two blocks stay under 1 MB, against 72 MB for all n^2 entries.
        assert bound <= 2**20 + self.SLACK
        assert peak_traced_bytes(lambda: signed_energy_sum(a, wa, alpha)) <= bound
        assert peak_traced_bytes(lambda: signed_cross_sum(a, wa, b, wb, alpha)) <= bound

    @pytest.mark.parametrize("n", [209, 412])
    def test_sums_hold_no_iterator_buffers(self, n):
        # particle-dp-d2's sizes: the median and about the largest merged
        # set. Buffered, each broadcast subtraction held about 128 KB of
        # iterator buffers; unbuffered, a sum holds its two row blocks, the
        # contiguous coordinate rows and the products' vectors.
        from mmdrl import kernels as kernels_module

        rng = np.random.default_rng(21)
        a, b = rng.normal(size=(2, n, 2))
        wa, wb = rng.normal(size=(2, n))
        rows = min(max(1, kernels_module._BLOCK_ENTRIES // n), n)
        bound = 2 * rows * n * 8 + 32 * 1024
        assert peak_traced_bytes(lambda: signed_energy_sum(a, wa, 1.0)) <= bound
        assert peak_traced_bytes(lambda: signed_cross_sum(a, wa, b, wb, 1.0)) <= bound


class TestUnbufferedFill:
    # _rho_block fills its blocks from contiguous coordinate rows with the
    # ufunc buffer size lowered. The bytes must be those of the reference's
    # plain broadcast subtractions, which numpy buffers for block rows of at
    # most 8192 // 3 = 2730 entries at its default buffer size, whatever
    # the atoms' memory layout.
    LAYOUTS = {
        "c": lambda x: x,
        "fortran": np.asfortranarray,
        "reversed-columns": lambda x: x[:, ::-1],
        "every-other-row": lambda x: np.repeat(x, 2, axis=0)[::2],
    }

    @pytest.mark.parametrize("columns", [2730, 2731])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("dim, alpha", [(1, 0.5), (1, 1.5), (2, 1.0), (2, 1.5), (3, 0.5), (3, 1.0)])
    def test_bitwise_equal_to_reference(self, columns, layout, dim, alpha):
        rng = np.random.default_rng(19)
        view = self.LAYOUTS[layout]
        atoms = view(rng.normal(size=(columns, dim)))
        rows = view(rng.normal(size=(40, dim)) * 3.0)
        w, wr = rng.normal(size=columns), rng.normal(size=40)
        # The first energy block's rows hold all columns, later ones fewer.
        assert signed_energy_sum(atoms, w, alpha) == reference_signed_energy_sum(atoms, w, alpha)
        assert signed_cross_sum(rows, wr, atoms, w, alpha) == reference_signed_cross_sum(
            rows, wr, atoms, w, alpha
        )

    def test_buffer_size_restored(self):
        rng = np.random.default_rng(20)
        atoms, w = rng.normal(size=(50, 2)), rng.normal(size=50)
        size = np.getbufsize()
        try:
            for caller_size in (size, 4096):
                np.setbufsize(caller_size)
                signed_energy_sum(atoms, w, 1.5)
                assert np.getbufsize() == caller_size
                signed_cross_sum(atoms, w, atoms[:7], w[:7], 1.0)
                assert np.getbufsize() == caller_size
        finally:
            np.setbufsize(size)

    def test_buffer_size_restored_when_fill_raises(self):
        # inf - inf is invalid, so with invalid="raise" the fill's first
        # subtraction raises inside the lowered buffer size. np.errstate is
        # not used: in numpy 2 it restores the buffer size on its own.
        atoms = np.array([[np.inf, 0.0], [1.0, 2.0], [0.0, 1.0]])
        w = np.array([0.5, 0.25, 0.25])
        size = np.getbufsize()
        state = np.seterr(invalid="raise")
        try:
            with pytest.raises(FloatingPointError):
                signed_energy_sum(atoms, w, 1.0)
            assert np.getbufsize() == size
            with pytest.raises(FloatingPointError):
                signed_cross_sum(atoms, w, atoms[:1], w[:1], 1.0)
            assert np.getbufsize() == size
        finally:
            np.seterr(**state)


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

    @pytest.mark.parametrize("far", [2e296, -1e300, 1e307, np.inf, np.nan])
    def test_keys_that_are_not_finite_are_refused(self, far):
        # Past about 1.8e296 the key far / MERGE_TOL is infinite, and atoms
        # that differ would fall in one bucket.
        atoms = np.array([[1e300, 0.0], [0.0, far]])
        with pytest.raises(InvalidInputError, match="merge"):
            merge_close_atoms(atoms, np.array([0.5, 0.5]))

    def test_largest_finite_keys_stay_apart(self):
        atoms = np.array([[1e296], [-1e296], [1.7e296]])
        got_atoms, got_weights = merge_close_atoms(atoms, np.full(3, 1.0 / 3))
        assert got_atoms[:, 0].tolist() == [-1e296, 1e296, 1.7e296]
        assert got_weights.tolist() == [1.0 / 3] * 3
