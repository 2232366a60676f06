"""MMD projection QPs: simplex and mass-1 signed solvers."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdrl import (
    CategoricalEngine,
    DiscreteMeasure,
    InvalidInputError,
    SignedProjector,
    SimplexProjector,
    SolverError,
    SupportMap,
    energy_kernel,
    gram,
    mixture,
    mmd,
    point_init,
    project,
    project_signed,
    project_simplex,
    random_mdp,
    rng_stream,
)
from mmdrl.evaluation import mesh_and_bound
from mmdrl.kernels import cross_kernel
from mmdrl.mdp import TabularMDP
from mmdrl.projections import (
    KKT_ACCEPT,
    ProjectionResult,
    _active_set,
    project_to_simplex,
    solve_simplex_qp,
    solve_simplex_qp_batch,
)

from util import (
    random_probability_measure,
    random_signed_measure,
    reference_active_set,
    semimetric_matrix,
)

SPEC = energy_kernel(1.0)


def projection_qp(target, support, spec):
    """Gram matrix and linear term of the projection QP, as ``project`` builds them."""
    projector = SimplexProjector(support, spec)
    return SimpleNamespace(
        gram=projector.gram,
        linear=cross_kernel(projector.atoms, target.atoms, spec) @ target.weights,
    )


def distance_qp(target, support, alpha, reference=None):
    """The projection QP built from the test's own distance matrices.

    Independent of ``gram`` and the projectors: the kernel is the one with
    reference point y0 (the origin by default),
    K_ij = (rho(xi_i, y0) + rho(xi_j, y0) - rho(xi_i, xi_j)) / 2, from
    ``np.linalg.norm`` distances. On mass-1 weights its objective differs
    from the projectors' by a constant, so both have the same minimiser.
    """
    y0 = np.zeros(support.shape[1]) if reference is None else np.asarray(reference, dtype=float)
    to_y0 = semimetric_matrix(support, y0, alpha)[:, 0]
    target_to_y0 = semimetric_matrix(target.atoms, y0, alpha)[:, 0]
    kernel = 0.5 * (to_y0[:, None] + to_y0[None, :] - semimetric_matrix(support, support, alpha))
    cross = 0.5 * (
        to_y0[:, None] + target_to_y0[None, :] - semimetric_matrix(support, target.atoms, alpha)
    )
    return SimpleNamespace(gram=kernel, linear=cross @ target.weights)


def qp_objective(weights, qp):
    return float(weights @ qp.gram @ weights - 2.0 * qp.linear @ weights)


def enumerate_active_sets(qp):
    """Exact oracle: the best simplex point over every candidate free set.

    Each free set's equality-constrained restriction is solved in closed
    form (stationarity with the mass constraint via a bordered system).
    """
    n = qp.gram.shape[0]
    best, best_w = np.inf, None
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            idx = list(subset)
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = 2.0 * qp.gram[np.ix_(idx, idx)]
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.concatenate([2.0 * qp.linear[idx], [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            w_sub = sol[:r]
            if np.any(w_sub < -1e-12):
                continue
            full = np.zeros(n)
            full[idx] = np.maximum(w_sub, 0.0)
            value = qp_objective(full, qp)
            if value < best:
                best, best_w = value, full
    return best_w


class TestEuclideanSimplexProjection:
    def test_already_feasible(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(2, 8)))
            out = project_to_simplex(v)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0.0)
            # Optimality: no feasible direction improves the distance.
            for _ in range(10):
                d = rng.normal(size=v.size)
                d -= d.mean()
                trial = out + 1e-6 * d
                if np.all(trial >= 0.0):
                    assert np.sum((trial - v) ** 2) >= np.sum((out - v) ** 2) - 1e-15


class TestBuildQp:
    def test_hand_linear_term(self):
        # Support {0, 1}, target delta at 0.5: q = -(rho(0, .5), rho(1, .5)) / 2.
        qp = projection_qp(DiscreteMeasure.point([0.5]), np.array([[0.0], [1.0]]), SPEC)
        np.testing.assert_allclose(qp.linear, [-0.25, -0.25], atol=1e-12)
        np.testing.assert_allclose(qp.gram, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-12)

    def test_duplicate_support_rejected(self):
        for project in (project_simplex, project_signed):
            with pytest.raises(InvalidInputError):
                project(DiscreteMeasure.point([0.5]), np.array([[0.0], [0.0]]), SPEC)

    def test_target_mass_checked(self):
        bad = DiscreteMeasure(np.array([[0.0]]), np.array([0.7]))
        for project in (project_simplex, project_signed):
            with pytest.raises(InvalidInputError):
                project(bad, np.array([[0.0], [1.0]]), SPEC)

    def test_finite_for_disjoint_targets(self):
        qp = projection_qp(
            DiscreteMeasure.point([9.0, -4.0]),
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            SPEC,
        )
        assert np.all(np.isfinite(qp.linear))


class TestProjectSimplex:
    def test_midpoint_splits_evenly(self):
        out = project_simplex(DiscreteMeasure.point([0.5]), np.array([[0.0], [1.0]]), SPEC)
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-8)

    def test_identity_on_feasible_measures(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            support = rng.uniform(0, 3, size=(int(rng.integers(2, 7)), 2))
            w = rng.uniform(0.05, 1.0, size=support.shape[0])
            w /= w.sum()
            p = DiscreteMeasure(support, w)
            out = project_simplex(p, support, SPEC)
            assert mmd(out, p, SPEC) <= 1e-7

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        support = rng.uniform(0, 2, size=(6, 2))
        target = random_probability_measure(rng, 4, 2, low=0.0, high=2.0)
        once = project_simplex(target, support, SPEC)
        twice = project_simplex(once, support, SPEC)
        assert mmd(once, twice, SPEC) <= 1e-7

    def test_result_invariants(self):
        rng = np.random.default_rng(3)
        support = rng.uniform(0, 2, size=(8, 2))
        target = random_probability_measure(rng, 5, 2, low=0.0, high=2.0)
        qp = projection_qp(target, support, SPEC)
        res = solve_simplex_qp(qp.gram, qp.linear)
        assert isinstance(res, ProjectionResult)
        assert abs(res.weights.sum() - 1.0) <= 1e-10
        assert np.all(res.weights >= 0.0)
        assert res.kkt_residual <= 1e-8

    def test_matches_dense_grid_search_three_atoms(self):
        # Independent oracle: every simplex point on a 1e-3 lattice.
        rng = np.random.default_rng(4)
        steps = 1000
        grid_i, grid_j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1))
        mask = grid_i + grid_j <= steps
        candidates = (
            np.stack(
                [grid_i[mask], grid_j[mask], steps - grid_i[mask] - grid_j[mask]],
                axis=1,
            )
            / steps
        )
        for _ in range(3):
            support = rng.uniform(0, 2, size=(3, 2))
            target = random_probability_measure(rng, 3, 2, low=0.0, high=2.0)
            qp = projection_qp(target, support, SPEC)
            objectives = (
                np.einsum("ij,jk,ik->i", candidates, qp.gram, candidates)
                - 2.0 * candidates @ qp.linear
            )
            best = float(np.min(objectives))
            res = solve_simplex_qp(qp.gram, qp.linear)
            assert qp_objective(res.weights, qp) <= best + 1e-5

    def test_matches_active_set_enumeration_four_atoms(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            support = rng.uniform(0, 2, size=(4, 2))
            target = random_probability_measure(rng, 4, 2, low=0.0, high=2.0)
            qp = projection_qp(target, support, SPEC)
            oracle = distance_qp(target, support, 1.0)
            best = qp_objective(enumerate_active_sets(oracle), oracle)
            res = solve_simplex_qp(qp.gram, qp.linear)
            assert qp_objective(res.weights, oracle) <= best + 1e-5

    def test_perturbations_never_improve(self):
        rng = np.random.default_rng(6)
        support = rng.uniform(0, 2, size=(6, 2))
        target = random_probability_measure(rng, 5, 2, low=0.0, high=2.0)
        qp = projection_qp(target, support, SPEC)
        res = solve_simplex_qp(qp.gram, qp.linear)
        base = qp_objective(res.weights, qp)
        trials = 0
        for _ in range(500):
            direction = rng.normal(size=6)
            direction -= direction.mean()
            direction /= np.linalg.norm(direction)
            trial = res.weights + 1e-4 * direction
            if np.any(trial < 0.0):
                continue
            trials += 1
            assert qp_objective(trial, qp) >= base - 1e-12
            if trials >= 100:
                break

    def test_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            support = rng.uniform(0, 3, size=(int(rng.integers(2, 9)), dim))
            p1 = random_probability_measure(rng, int(rng.integers(1, 6)), dim)
            p2 = random_probability_measure(rng, int(rng.integers(1, 6)), dim)
            d_out = mmd(
                project_simplex(p1, support, SPEC),
                project_simplex(p2, support, SPEC),
                SPEC,
            )
            assert d_out <= mmd(p1, p2, SPEC) + 1e-9

    def test_projection_error_below_grid_mesh(self):
        # For grid supports, squared projection error is bounded by the
        # mesh of the grid's cell partition.
        rng = np.random.default_rng(8)
        mdp = TabularMDP(np.eye(1), np.array([[1.0, 1.0]]), 0.5, r_max=1.0)
        for n_atoms in (16, 64):
            support = SupportMap.uniform_grid(1, 2, n_atoms, mdp.v_max)
            report = mesh_and_bound(support, mdp, SPEC)
            for _ in range(5):
                target = random_probability_measure(
                    rng, int(rng.integers(1, 6)), 2, low=0.0, high=mdp.v_max
                )
                projected = project_simplex(target, support[0], SPEC)
                assert mmd(projected, target, SPEC) ** 2 <= report.mesh + 1e-9


class TestProjectSigned:
    def test_midpoint_splits_evenly(self):
        out = project_signed(DiscreteMeasure.point([0.5]), np.array([[0.0], [1.0]]), SPEC)
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-10)

    def test_identity_on_affine_members(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            support = rng.uniform(0, 3, size=(5, 2))
            p = random_signed_measure(rng, 5, 2)
            p = DiscreteMeasure(support, p.weights)
            out = project_signed(p, support, SPEC)
            np.testing.assert_allclose(out.weights, p.weights, atol=1e-8)

    def test_affine_in_target(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            support = rng.uniform(0, 3, size=(int(rng.integers(2, 8)), dim))
            atoms = rng.uniform(0, 3, size=(4, dim))
            p = DiscreteMeasure(atoms, _mass_one(rng, 4))
            q = DiscreteMeasure(atoms, _mass_one(rng, 4))
            lam = 0.3
            blended = DiscreteMeasure(atoms, lam * p.weights + (1 - lam) * q.weights)
            lhs = project_signed(blended, support, SPEC)
            rhs_w = (
                lam * project_signed(p, support, SPEC).weights
                + (1 - lam) * project_signed(q, support, SPEC).weights
            )
            rhs = DiscreteMeasure(support, rhs_w)
            assert mmd(lhs, rhs, SPEC) <= 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            support = rng.uniform(0, 3, size=(int(rng.integers(2, 8)), dim))
            p1 = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
            p2 = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
            d_out = mmd(
                project_signed(p1, support, SPEC),
                project_signed(p2, support, SPEC),
                SPEC,
            )
            assert d_out <= mmd(p1, p2, SPEC) + 1e-9

    def test_mass_exactly_one(self):
        rng = np.random.default_rng(12)
        support = rng.uniform(0, 3, size=(7, 2))
        p = random_signed_measure(rng, 5, 2)
        out = project_signed(p, support, SPEC)
        assert abs(out.mass - 1.0) <= 1e-10

    def test_rank_deficient_system_raises(self, monkeypatch):
        import mmdrl.projections as projections

        monkeypatch.setattr(projections, "gram", lambda atoms, spec: np.zeros((3, 3)))
        with pytest.raises(SolverError):
            SignedProjector(np.array([[0.0], [1.0], [2.0]]), SPEC)


def engine_projectors(kind, support):
    """The per-state projectors of a ``kind`` engine on ``support``."""
    mdp = random_mdp(support.n_states, support.dim, 0.5, 1.0, rng_stream(0))
    projection = "simplex" if kind is SimplexProjector else "signed"
    return CategoricalEngine(mdp, support, SPEC, projection).projectors


class TestProjectorCaches:
    @pytest.mark.parametrize("kind", [SimplexProjector, SignedProjector])
    def test_constant_support_shares_one_projector(self, kind):
        support = SupportMap.constant(np.array([[0.0], [0.5], [1.0]]), 4)
        projectors = engine_projectors(kind, support)
        assert len(projectors) == 4
        assert isinstance(projectors[0], kind)
        assert all(p is projectors[0] for p in projectors)

    @pytest.mark.parametrize("kind", [SimplexProjector, SignedProjector])
    def test_distinct_supports_get_distinct_projectors(self, kind):
        support = SupportMap.random(3, 2, 5, 1.0, np.random.default_rng(30))
        projectors = engine_projectors(kind, support)
        assert len({id(p) for p in projectors}) == 3
        for x, p in enumerate(projectors):
            assert np.array_equal(p.atoms, support[x])

    def test_equal_states_share_among_distinct_ones(self):
        a, b = np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]])
        projectors = engine_projectors(SignedProjector, SupportMap((a, b, a, b)))
        assert projectors[0] is projectors[2] and projectors[1] is projectors[3]
        assert projectors[0] is not projectors[1]

    def test_simplex_projector_matches_one_shot(self):
        # One projector reused over several targets gives the weights of
        # a fresh projector per target, bit for bit.
        rng = np.random.default_rng(13)
        support = rng.uniform(0, 2, size=(9, 2))
        projector = SimplexProjector(support, SPEC)
        for _ in range(5):
            target = random_probability_measure(rng, 4, 2, low=0.0, high=2.0)
            one_shot = project_simplex(target, support, SPEC)
            assert np.array_equal(project(projector, target), one_shot.weights)

    def test_signed_projector_matches_one_shot(self):
        rng = np.random.default_rng(14)
        support = rng.uniform(0, 2, size=(9, 2))
        projector = SignedProjector(support, SPEC)
        for _ in range(5):
            target = random_signed_measure(rng, 4, 2)
            one_shot = project_signed(target, support, SPEC)
            assert np.array_equal(project(projector, target), one_shot.weights)

    def test_signed_affine_map(self):
        rng = np.random.default_rng(15)
        support = rng.uniform(0, 2, size=(6, 2))
        projector = SignedProjector(support, SPEC)
        target_atoms = rng.uniform(0, 2, size=(4, 2))
        m_map, b_map = projector.affine_map(target_atoms)
        w = _mass_one(rng, 4)
        direct = project(projector, DiscreteMeasure(target_atoms, w))
        np.testing.assert_allclose(m_map @ w + b_map, direct, atol=1e-12)

    def test_batch_matches_serial(self):
        rng = np.random.default_rng(16)
        support = rng.uniform(0, 2, size=(8, 2))
        projector = SimplexProjector(support, SPEC)
        q_rows = []
        for _ in range(4):
            target = random_probability_measure(rng, 3, 2, low=0.0, high=2.0)
            q_rows.append(cross_kernel(projector.atoms, target.atoms, SPEC) @ target.weights)
        q_rows = np.stack(q_rows)
        batch_w, residuals, _ = solve_simplex_qp_batch(projector.gram, q_rows)
        assert np.all(residuals <= 1e-8)
        for row, q in zip(batch_w, q_rows):
            serial = solve_simplex_qp(projector.gram, q)
            delta = row - serial.weights
            assert float(delta @ projector.gram @ delta) <= 1e-14


def route_supports(mdp):
    """Grid, random and partly shared supports for ``mdp``'s four states."""
    a, b = SupportMap.random(2, 2, 7, mdp.v_max, rng_stream(42)).atoms
    return {
        "grid": SupportMap.uniform_grid(4, 2, 16, mdp.v_max),
        "random": SupportMap.random(4, 2, 9, mdp.v_max, rng_stream(41)),
        "partly-shared": SupportMap((a, b, a, a)),
    }


class TestOneRoute:
    """``init_weights``, ``project_simplex`` and ``project_signed`` reach
    the projectors only through ``solve``: each equals ``solve`` of a
    hand-formed linear term, one row per state, bit for bit."""

    @pytest.mark.parametrize("kind", [SimplexProjector, SignedProjector])
    @pytest.mark.parametrize("shape", ["grid", "random", "partly-shared"])
    def test_equals_solve_of_hand_linear_term(self, kind, shape):
        mdp = random_mdp(4, 2, 0.8, 1.0, rng_stream(40))
        support = route_supports(mdp)[shape]
        projection = "simplex" if kind is SimplexProjector else "signed"
        one_shot = project_simplex if kind is SimplexProjector else project_signed
        init = CategoricalEngine(mdp, support, SPEC, projection).init_weights()
        rng = np.random.default_rng(43)
        for x, point in enumerate(point_init(mdp)):
            for target in (point, random_signed_measure(rng, 3, 2)):
                q = cross_kernel(support[x], target.atoms, SPEC) @ target.weights
                want = kind(support[x], SPEC).solve(q[None, :])[0]
                assert np.array_equal(one_shot(target, support[x], SPEC).weights, want)
            q = cross_kernel(support[x], point.atoms, SPEC) @ point.weights
            assert np.array_equal(init[x], kind(support[x], SPEC).solve(q[None, :])[0])


def _mass_one(rng, n):
    w = rng.normal(size=n)
    w[-1] = 1.0 - np.sum(w[:-1])
    return w


class TestMixedProjectionInstance:
    def test_projected_mixture_differs_from_mixture_of_projections(self):
        # Two-point instance on the 4x4 planar grid; the simplex projection
        # is measurably non-affine there while the signed one is affine.
        grid = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
        p1 = DiscreteMeasure.point([1.5, 1.5])
        p2 = DiscreteMeasure.point([2.5, 0.0])
        lam = 0.8
        blend = mixture([(lam, p1), (1 - lam, p2)])
        left = project_simplex(blend, grid, SPEC)
        right_w = (
            lam * project_simplex(p1, grid, SPEC).weights
            + (1 - lam) * project_simplex(p2, grid, SPEC).weights
        )
        right = DiscreteMeasure(grid, right_w)
        assert mmd(left, right, SPEC) >= 1e-3
        signed_left = project_signed(blend, grid, SPEC)
        signed_right = DiscreteMeasure(
            grid,
            lam * project_signed(p1, grid, SPEC).weights
            + (1 - lam) * project_signed(p2, grid, SPEC).weights,
        )
        assert mmd(signed_left, signed_right, SPEC) <= 1e-8


# Supports on a lattice of spacing 1/4 keep atoms apart, so the free-set
# systems stay well conditioned; targets live on a finer lattice that
# reaches past the support on both sides.
@st.composite
def projection_instances(draw, dim=None, alpha=None):
    dim = draw(st.sampled_from((1, 2))) if dim is None else dim
    alpha = draw(st.sampled_from((0.5, 1.0, 1.5))) if alpha is None else alpha
    cells = draw(
        st.lists(
            st.tuples(*[st.integers(0, 8)] * dim), min_size=2, max_size=6, unique=True
        )
    )
    support = np.array(cells, dtype=float) / 4.0
    n_target = draw(st.integers(1, 4))
    target_atoms = np.array(
        draw(
            st.lists(
                st.tuples(*[st.integers(-8, 24)] * dim),
                min_size=n_target,
                max_size=n_target,
            )
        ),
        dtype=float,
    ) / 8.0
    raw = np.array(draw(st.lists(st.integers(1, 10), min_size=n_target, max_size=n_target)))
    return support, DiscreteMeasure(target_atoms, raw / raw.sum()), alpha


def two_hot(support_1d, target):
    """Closed-form Cramer projection of a 1-d target onto sorted support atoms."""
    order = np.argsort(support_1d)
    xs = support_1d[order]
    out = np.zeros(xs.size)
    for atom, w in zip(target.atoms[:, 0], target.weights):
        if atom <= xs[0]:
            out[0] += w
        elif atom >= xs[-1]:
            out[-1] += w
        else:
            i = int(np.searchsorted(xs, atom)) - 1
            frac = (atom - xs[i]) / (xs[i + 1] - xs[i])
            out[i] += w * (1.0 - frac)
            out[i + 1] += w * frac
    weights = np.zeros(xs.size)
    weights[order] = out
    return weights


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


class TestSimplexSolverProperties:
    @PROPERTY_SETTINGS
    @given(projection_instances())
    def test_matches_enumeration_and_accepts(self, instance):
        support, target, alpha = instance
        qp = projection_qp(target, support, energy_kernel(alpha))
        res = solve_simplex_qp(qp.gram, qp.linear)
        assert res.kkt_residual <= KKT_ACCEPT
        assert np.all(res.weights >= 0.0)
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        oracle = enumerate_active_sets(distance_qp(target, support, alpha))
        np.testing.assert_allclose(res.weights, oracle, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(projection_instances())
    def test_equals_signed_when_signed_is_feasible(self, instance):
        support, target, alpha = instance
        qp = projection_qp(target, support, energy_kernel(alpha))
        signed = project(SignedProjector(support, energy_kernel(alpha)), target)
        if np.min(signed) >= 0.0:
            res = solve_simplex_qp(qp.gram, qp.linear)
            np.testing.assert_allclose(res.weights, signed, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(projection_instances(dim=1, alpha=1.0))
    def test_two_hot_closed_form_at_d1_alpha1(self, instance):
        support, target, _ = instance
        out = project_simplex(target, support, SPEC)
        np.testing.assert_allclose(out.weights, two_hot(support[:, 0], target), atol=1e-9)

    @PROPERTY_SETTINGS
    @given(projection_instances())
    def test_reference_point_invariance(self, instance):
        # The minimiser under the kernel of any reference point is the
        # reference-free projection.
        support, target, alpha = instance
        dim = support.shape[1]
        projected = project_simplex(target, support, energy_kernel(alpha)).weights
        for ref in (None, [5.0, 5.0][:dim], [-30.0, 40.0][:dim]):
            oracle = enumerate_active_sets(distance_qp(target, support, alpha, ref))
            np.testing.assert_allclose(projected, oracle, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(projection_instances(), st.integers(0, 2**32 - 1))
    def test_warm_start_reaches_cold_solution(self, instance, seed):
        support, target, alpha = instance
        qp = projection_qp(target, support, energy_kernel(alpha))
        cold = solve_simplex_qp(qp.gram, qp.linear).weights
        # A sparse probability vector, as a previous sweep would leave.
        start = np.random.default_rng(seed).dirichlet(np.ones(cold.size))
        start[start < 0.2] = 0.0
        rows, residuals, _ = solve_simplex_qp_batch(
            qp.gram, qp.linear[None, :], start[None, :]
        )
        assert residuals[0] <= KKT_ACCEPT
        np.testing.assert_allclose(rows[0], cold, atol=1e-9)


# Warm starts as a caller may pass them: a sparse probability vector, as a
# previous sweep leaves, and the rows the solver must clip or ignore.
WARM_STARTS = ("cold", "feasible", "mixed", "negative", "zero", "nan", "inf", "short")


@st.composite
def active_set_instances(draw):
    """(K, q, start) of a simplex QP on n in [2, 64] distinct lattice atoms
    at d in {1, 2, 3} and alpha in {0.5, 1, 1.5}, with a mass-1 target of
    up to 8 atoms reaching past the support."""
    dim = draw(st.sampled_from((1, 2, 3)))
    spec = energy_kernel(draw(st.sampled_from((0.5, 1.0, 1.5))))
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(WARM_STARTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = {1: 128, 2: 16, 3: 8}[dim]
    cells = rng.choice(side**dim, size=n, replace=False)
    support = np.stack(np.unravel_index(cells, (side,) * dim), axis=1) / side
    target = random_probability_measure(rng, int(rng.integers(1, 9)), dim, low=-0.5, high=1.5)
    q = cross_kernel(support, target.atoms, spec) @ target.weights
    start = {
        "cold": None,
        "feasible": rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5),
        "mixed": rng.standard_normal(n),
        "negative": -rng.random(n),
        "zero": np.zeros(n),
        "nan": np.where(np.arange(n) == rng.integers(n), np.nan, rng.random(n)),
        "inf": np.where(np.arange(n) == rng.integers(n), np.inf, rng.random(n)),
        "short": rng.random(n - 1),
    }[kind]
    return gram(support, spec), q, start


class TestActiveSetOracle:
    """``_active_set`` against the body it had before its free-set systems
    were filled in place (``util.reference_active_set``): the same weights
    to the bit and the same number of equality solves."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(active_set_instances())
    def test_bitwise_equal_to_reference(self, instance):
        k, q, start = instance
        weights, solves = _active_set(k, q, start)
        want, want_solves = reference_active_set(k, q, start)
        assert weights.shape == want.shape
        assert weights.tobytes() == want.tobytes()
        assert solves == want_solves

    @pytest.mark.parametrize("start", [None, np.array([0.5, 0.5, 0.0])])
    @pytest.mark.parametrize("k", [
        np.zeros((3, 3)),
        gram(np.array([[0.0], [0.0], [1.0]]), SPEC),  # a repeated atom
    ], ids=["zero", "repeated-atom"])
    def test_singular_system_raises_on_both_sides(self, k, start):
        q = np.array([0.1, 0.2, 0.3])
        for solve in (_active_set, reference_active_set):
            with pytest.raises(SolverError, match="singular free-set system"):
                solve(k, q, start)


@st.composite
def signed_targets(draw, n_atoms, dim):
    """Mass-1 signed weights on ``n_atoms`` lattice atoms at ``dim``."""
    atoms = np.array(
        draw(st.lists(st.tuples(*[st.integers(-8, 24)] * dim), min_size=n_atoms, max_size=n_atoms)),
        dtype=float,
    ) / 8.0
    raw = np.array(draw(st.lists(st.integers(-10, 10), min_size=n_atoms, max_size=n_atoms))) / 10.0
    return DiscreteMeasure(atoms, raw + (1.0 - raw.sum()) / n_atoms)


@st.composite
def signed_instances(draw):
    """(support, alpha, two signed targets on one atom set, a third on
    another) at d in {1, 2, 3} and alpha in {0.5, 1, 1.5}."""
    dim = draw(st.sampled_from((1, 2, 3)))
    support, _, alpha = draw(projection_instances(dim=dim))
    n = draw(st.integers(1, 4))
    p = draw(signed_targets(n, dim))
    q = draw(signed_targets(n, dim))
    q = DiscreteMeasure(p.atoms, q.weights)
    r = draw(signed_targets(draw(st.integers(1, 4)), dim))
    return support, alpha, p, q, r


class TestSignedProjectorProperties:
    @PROPERTY_SETTINGS
    @given(signed_instances(), st.sampled_from((-1.0, 0.3, 0.5, 2.0)))
    def test_affine_in_target_weights(self, instance, lam):
        support, alpha, p, q, _ = instance
        projector = SignedProjector(support, energy_kernel(alpha))
        blend = project(
            projector, DiscreteMeasure(p.atoms, lam * p.weights + (1 - lam) * q.weights)
        )
        left = project(projector, p)
        right = project(projector, q)
        scale = 1.0 + np.max(np.abs(left)) + np.max(np.abs(right))
        np.testing.assert_allclose(blend, lam * left + (1 - lam) * right, rtol=0, atol=1e-9 * scale)

    @PROPERTY_SETTINGS
    @given(signed_instances())
    def test_stationary_on_the_support(self, instance):
        # The gradient 2 (K p - q) of p^T K p - 2 p^T q, with K = -R / 2 and
        # q = K_c w from the test's own distances, is normal to the mass-1
        # plane: constant across the support up to round-off.
        support, alpha, p, _, _ = instance
        out = project(SignedProjector(support, energy_kernel(alpha)), p)
        k = -0.5 * semimetric_matrix(support, support, alpha)
        q = -0.5 * semimetric_matrix(support, p.atoms, alpha) @ p.weights
        grad = 2.0 * (k @ out - q)
        scale = 1.0 + np.max(np.abs(k)) * np.sum(np.abs(out)) + np.max(np.abs(q))
        assert abs(out.sum() - 1.0) <= 1e-12 * np.sum(np.abs(out))
        assert np.ptp(grad) <= 1e-9 * scale

    @PROPERTY_SETTINGS
    @given(signed_instances())
    def test_mmd_nonexpansive(self, instance):
        support, alpha, p, _, r = instance
        spec = energy_kernel(alpha)
        projector = SignedProjector(support, spec)
        out_p = DiscreteMeasure(support, project(projector, p))
        out_r = DiscreteMeasure(support, project(projector, r))
        assert mmd(out_p, out_r, spec) <= mmd(p, r, spec) + 1e-9
