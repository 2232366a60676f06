"""Temporal-difference engines: signed categorical and particle variants."""

import copy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdrl import (
    DiscreteMeasure,
    InvalidInputError,
    ReturnDistFn,
    SupportMap,
    TabularMDP,
    Transition,
    categorical,
    categorical_dp_solve,
    categorical_td_run,
    dsm_mdp,
    energy_kernel,
    ewp_mmd_sq_gradient,
    ewp_mmd_sq_objective,
    ewp_td_run,
    ewp_td_step,
    init_td_state,
    make_schedule,
    mmd,
    mmd_squared,
    project_signed,
    random_mdp,
    rng_stream,
    stochastic_backup,
    sup_mmd,
    weights_on_support,
)
from mmdrl.kernels import gram
from mmdrl.mdp import sample_visits
from mmdrl.td import TdState

from util import reference_ewp_td_run

SPEC = energy_kernel(1.0)


class TestSchedule:
    def test_first_visit_equals_scale(self):
        schedule = make_schedule(0.6, 0.5)
        assert schedule(1) == pytest.approx(0.5)

    def test_power_of_two_value(self):
        # 32^(-3/5) = 2^(-3) exactly.
        schedule = make_schedule(0.6, 1.0)
        assert schedule(32) == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("exponent", [0.4, 0.5, 1.2, 0.0])
    def test_square_summability_enforced(self, exponent):
        with pytest.raises(InvalidInputError):
            make_schedule(exponent)

    def test_boundary_exponent_allowed(self):
        assert make_schedule(1.0)(10) == pytest.approx(0.1)

    def test_visits_start_at_one(self):
        with pytest.raises(InvalidInputError):
            make_schedule()(0)


class TestStochasticBackup:
    def test_point_mass_pushforward(self):
        eta = ReturnDistFn((DiscreteMeasure.point([0.0]),))
        tr = Transition(0, np.array([1.0]), 0)
        out = stochastic_backup(eta, tr, 0.5)
        np.testing.assert_allclose(out.atoms, [[1.0]])

    def test_zero_discount_gives_reward(self):
        eta = ReturnDistFn(
            (DiscreteMeasure(np.array([[3.0], [7.0]]), np.array([0.5, 0.5])),)
        )
        tr = Transition(0, np.array([2.0]), 0)
        out = stochastic_backup(eta, tr, 0.0)
        np.testing.assert_allclose(np.unique(out.atoms), [2.0])

    def test_mixture_atomwise(self):
        eta = ReturnDistFn(
            (
                DiscreteMeasure.point([9.0]),
                DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.25, 0.75])),
            )
        )
        tr = Transition(0, np.array([1.0]), 1)
        out = stochastic_backup(eta, tr, 0.5)
        np.testing.assert_allclose(out.atoms, [[1.0], [2.0]])
        np.testing.assert_allclose(out.weights, [0.25, 0.75])


def small_setup(seed=0, n_states=3, m=8):
    mdp = random_mdp(n_states, 1, 0.8, 1.0, rng_stream(seed))
    support = SupportMap.uniform_grid(n_states, 1, m, mdp.v_max)
    return mdp, support


def one_step(mdp, support, schedule, rng, init=None):
    """``categorical_td_run`` for one step: (state before, state after, the
    visited (x, y) pair)."""
    state = init if init is not None else init_td_state(mdp, support, SPEC)
    x, y = next(sample_visits(mdp, 1, copy.deepcopy(rng)))
    out, _ = categorical_td_run(mdp, support, SPEC, schedule, 1, rng, init=state)
    return state, out, (x, y)


class TestCategoricalTdStep:
    def test_full_step_equals_projected_backup(self):
        mdp, support = small_setup()
        schedule = make_schedule(0.6, 1.0)  # first visit: alpha = 1
        state, out, (x, y) = one_step(mdp, support, schedule, rng_stream(1))
        tr = Transition(x, mdp.cumulants[x], y)
        backup = stochastic_backup(state.estimate, tr, mdp.gamma)
        projected = project_signed(backup, support[x], SPEC)
        np.testing.assert_allclose(
            out.estimate[x].weights, projected.weights, atol=1e-9
        )

    def test_vanishing_step_freezes_estimate(self):
        mdp, support = small_setup(1)
        schedule = make_schedule(0.6, 1e-12)
        state, out, (x, _) = one_step(mdp, support, schedule, rng_stream(2))
        np.testing.assert_allclose(
            out.estimate[x].weights,
            weights_on_support(state.estimate[x], support[x]),
            atol=1e-11,
        )

    def test_other_states_untouched(self):
        mdp, support = small_setup(2)
        schedule = make_schedule(0.6, 1.0)
        state, out, (x, _) = one_step(mdp, support, schedule, rng_stream(3))
        for z in set(range(3)) - {x}:
            np.testing.assert_array_equal(
                out.estimate[z].weights, state.estimate[z].weights
            )
            np.testing.assert_array_equal(
                out.estimate[z].atoms, state.estimate[z].atoms
            )

    def test_mass_stays_one(self):
        mdp, support = small_setup(3)
        state = init_td_state(mdp, support, SPEC)
        schedule = make_schedule(0.6, 1.0)
        rng = rng_stream(4)
        for _ in range(200):
            _, state, (x, _) = one_step(mdp, support, schedule, rng, init=state)
            assert abs(state.estimate[x].mass - 1.0) <= 1e-10

    def test_visit_counts_drive_schedule(self):
        mdp, support = small_setup(5)
        schedule = make_schedule(0.6, 1.0)
        state, out, (x, _) = one_step(mdp, support, schedule, rng_stream(5))
        expected = np.zeros(3, dtype=np.int64)
        expected[x] = 1
        assert np.array_equal(out.visit_counts, expected)
        assert out.step == state.step + 1


class TestCategoricalTdRun:
    def test_zero_steps_returns_initialization(self):
        mdp, support = small_setup(6)
        state, report = categorical_td_run(
            mdp, support, SPEC, make_schedule(), 0, rng_stream(0)
        )
        init = init_td_state(mdp, support, SPEC)
        assert sup_mmd(state.estimate, init.estimate, SPEC) <= 1e-12
        assert report.steps == []

    def test_single_state_converges_to_known_fixed_point(self):
        # Self-loop, on-grid return r/(1-gamma) = 1: the estimate should
        # concentrate there.
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        support = SupportMap.constant(np.array([[0.0], [0.5], [1.0]]), 1)
        state, _ = categorical_td_run(
            mdp, support, SPEC, make_schedule(), 10_000, rng_stream(7)
        )
        target = categorical(support, [np.array([0.0, 0.0, 1.0])])
        assert sup_mmd(state.estimate, target, SPEC) <= 1e-3

    def test_error_series_trends_down(self):
        rng = rng_stream(8)
        mdp = dsm_mdp(rng.dirichlet(np.ones(3), size=3), 0.9)
        support = SupportMap.simplex_grid(3, 3, 6, scale=1.0)
        reference = categorical_dp_solve(
            mdp, support, SPEC, tol=1e-10, max_iter=1000, projection="signed"
        ).final
        _, report = categorical_td_run(
            mdp,
            support,
            SPEC,
            make_schedule(),
            20_000,
            rng_stream(9),
            reference=reference,
            report_interval=500,
        )
        series = np.array(report.sup_mmd)
        first = np.median(series[: len(series) // 10])
        last = np.median(series[-len(series) // 10 :])
        assert last <= first

    def test_projection_average_matches_expected_backup(self):
        # Averaging the projected stochastic backups over many sampled
        # transitions recovers the signed projection of the exact backup
        # (the projection is affine, so the average is meaningful).
        mdp, support = small_setup(10, n_states=3, m=6)
        rng = rng_stream(11)
        eta = init_td_state(mdp, support, SPEC).estimate
        x = 0
        reps = 10_000
        k = gram(support[x], SPEC)
        samples = np.empty((reps, support[x].shape[0]))
        for i in range(reps):
            y = int(rng.choice(3, p=mdp.transition[x]))
            tr = Transition(x, mdp.cumulants[x], y)
            backup = stochastic_backup(eta, tr, mdp.gamma)
            samples[i] = project_signed(backup, support[x], SPEC).weights
        mean_w = samples.mean(axis=0)
        from mmdrl import exact_bellman

        exact = exact_bellman(eta, mdp)[x]
        target_w = project_signed(exact, support[x], SPEC).weights
        diff = mean_w - target_w
        err = np.sqrt(max(float(diff @ k @ diff), 0.0))
        centered = samples - mean_w
        var = np.einsum("ij,jk,ik->i", centered, k, centered).mean()
        se = np.sqrt(var / reps)
        assert err <= 3 * se

    def test_trajectory_sampler_runs(self):
        mdp, support = small_setup(12)
        state, _ = categorical_td_run(
            mdp,
            support,
            SPEC,
            make_schedule(),
            500,
            rng_stream(13),
            state_sampler="trajectory",
        )
        assert state.step == 500

    def test_unknown_sampler_rejected(self):
        mdp, support = small_setup(14)
        with pytest.raises(InvalidInputError):
            categorical_td_run(
                mdp, support, SPEC, make_schedule(), 10, rng_stream(0),
                state_sampler="sweep",
            )

    @pytest.mark.parametrize("report_interval", [0, -1])
    def test_report_interval_below_one_rejected(self, report_interval):
        mdp, support = small_setup(14)
        with pytest.raises(InvalidInputError, match="report_interval"):
            categorical_td_run(
                mdp, support, SPEC, make_schedule(), 10, rng_stream(0),
                report_interval=report_interval,
            )
        # With no steps there is nothing to report.
        state, report = categorical_td_run(
            mdp, support, SPEC, make_schedule(), 0, rng_stream(0),
            report_interval=report_interval,
        )
        assert state.step == 0 and report.steps == []

    def test_report_csv(self, tmp_path):
        mdp, support = small_setup(15)
        _, report = categorical_td_run(
            mdp, support, SPEC, make_schedule(), 300, rng_stream(16),
            report_interval=100,
        )
        path = tmp_path / "td.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,sup_mmd_to_reference,mean_step_size"
        assert len(lines) == 4


def per_state_projector_td_run(
    mdp, support, spec, schedule, steps, rng, state_sampler, reference,
    report_interval=250, init=None,
):
    """categorical_td_run with one projector per state, no helper calls and
    the mass drift checked at every step: the loop as it was before
    projectors were shared between states. Returns (weights, visits,
    sup-MMD series, mean step sizes, renormalised steps)."""
    from mmdrl import SignedProjector, SimplexProjector, point_init
    from mmdrl.td import MASS_DRIFT_TOL

    n = mdp.n_states
    if init is None:
        points = point_init(mdp)
        weights = [
            SimplexProjector(support[x], spec).project(points[x].atoms, points[x].weights).weights
            for x in range(n)
        ]
        visits = np.zeros(n, dtype=np.int64)
    else:
        weights = [weights_on_support(init.estimate[x], support[x]) for x in range(n)]
        visits = init.visit_counts.copy()
    projectors = [SignedProjector(support[x], spec) for x in range(n)]
    ref_weights = [weights_on_support(reference[x], support[x]) for x in range(n)]
    maps = {}
    series, mean_step_size, alphas = [], [], []
    renormalizations = 0
    x = int(rng.integers(n)) if state_sampler == "trajectory" else 0
    for t in range(1, steps + 1):
        if state_sampler == "uniform":
            x = int(rng.integers(n))
        y = mdp._successors.one(x, rng.random())
        visits[x] += 1
        alpha = schedule(int(visits[x]))
        alphas.append(alpha)
        if (x, y) not in maps:
            shifted = mdp.cumulants[x] + mdp.gamma * support[y]
            maps[(x, y)] = projectors[x].affine_map(shifted)
        m_map, b_map = maps[(x, y)]
        projected = m_map @ weights[y] + b_map
        new_w = (1.0 - alpha) * weights[x] + alpha * projected
        drift = float(new_w.sum()) - 1.0
        if abs(drift) > MASS_DRIFT_TOL:
            new_w = new_w / (1.0 + drift)
            renormalizations += 1
        weights[x] = new_w
        if state_sampler == "trajectory":
            x = y
        if t % report_interval == 0 or t == steps:
            worst = 0.0
            for z in range(n):
                delta = weights[z] - ref_weights[z]
                val = float(delta @ projectors[z].gram @ delta)
                worst = max(worst, np.sqrt(max(val, 0.0)))
            series.append(worst)
            mean_step_size.append(float(np.mean(alphas)))
            alphas = []
    return weights, visits, series, mean_step_size, renormalizations


def assert_run_equals_per_state_projector_loop(
    mdp, support, steps, seed, sampler, report_interval=250, stream=0,
    schedule=None, init=None,
):
    """categorical_td_run against ``per_state_projector_td_run`` on the same
    generator: weights, visits, sup-MMD series, mean step sizes, the count
    of renormalised steps and the final generator state equal. Returns
    that count."""
    reference = categorical_dp_solve(
        mdp, support, SPEC, tol=1e-10, max_iter=2000, projection="signed"
    ).final
    schedule = schedule or make_schedule()
    rng, ref_rng = rng_stream(seed, stream), rng_stream(seed, stream)
    state, report = categorical_td_run(
        mdp, support, SPEC, schedule, steps, rng,
        state_sampler=sampler, reference=reference, report_interval=report_interval,
        init=init,
    )
    weights, visits, series, sizes, renormalizations = per_state_projector_td_run(
        mdp, support, SPEC, schedule, steps, ref_rng, sampler, reference,
        report_interval, init,
    )
    for x in range(mdp.n_states):
        assert np.array_equal(state.estimate[x].weights, weights[x])
    assert np.array_equal(state.visit_counts, visits)
    assert np.array_equal(np.array(report.sup_mmd), np.array(series))
    assert report.mean_step_size == sizes
    assert report.renormalizations == renormalizations
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return renormalizations


@pytest.fixture
def small_blocks(monkeypatch):
    """Draw visits 7 at a time, so that runs cross many blocks."""
    import mmdrl.mdp as mdp_module

    monkeypatch.setattr(mdp_module, "_VISIT_BLOCK", 7)


@pytest.fixture
def small_check_blocks(monkeypatch):
    """Check the mass drift every 5 steps, so that runs cross many checks."""
    import mmdrl.td as td_module

    monkeypatch.setattr(td_module, "_CHECK_BLOCK", 5)


def _shared_projector_case(kind, n_states=3):
    mdp = random_mdp(n_states, 2, 0.8, 1.0, rng_stream(21))
    if kind == "random":
        return mdp, SupportMap.random(n_states, 2, 7, mdp.v_max, rng_stream(22))
    if kind == "mixed":
        # What a support file may hold: a different atom count per state.
        rng = rng_stream(22)
        return mdp, SupportMap(tuple(
            rng.uniform(0.0, mdp.v_max, size=(5 + 2 * (x % 3), 2)) for x in range(n_states)
        ))
    return mdp, SupportMap.uniform_grid(n_states, 2, 9, mdp.v_max)


def _off_mass_init(mdp, support, excess=5e-10):
    """The usual initial state with every weight scaled by 1 + excess
    (ReturnDistFn admits a mass within 1e-9 of 1)."""
    state = init_td_state(mdp, support, SPEC)
    return TdState(
        ReturnDistFn(tuple(
            DiscreteMeasure(m.atoms, m.weights * (1.0 + excess)) for m in state.estimate
        )),
        state.visit_counts,
    )


class TestSharedProjectors:
    @pytest.mark.parametrize("kind", ["random", "grid", "mixed"])
    @pytest.mark.parametrize("sampler", ["uniform", "trajectory"])
    def test_run_equals_per_state_projector_loop(self, kind, sampler):
        mdp, support = _shared_projector_case(kind)
        assert_run_equals_per_state_projector_loop(mdp, support, 1000, 23, sampler)

    @pytest.mark.parametrize("kind", ["random", "grid", "mixed"])
    @pytest.mark.parametrize("sampler", ["uniform", "trajectory"])
    def test_small_blocks_equal_per_state_projector_loop(self, small_blocks, kind, sampler):
        mdp, support = _shared_projector_case(kind)
        assert_run_equals_per_state_projector_loop(mdp, support, 1000, 23, sampler)

    @pytest.mark.parametrize("kind", ["random", "grid", "mixed"])
    @pytest.mark.parametrize("sampler", ["uniform", "trajectory"])
    def test_small_check_blocks_equal_per_state_projector_loop(
        self, small_blocks, small_check_blocks, kind, sampler
    ):
        # Report steps every 13 steps end checks early; visits come 7 at a time.
        mdp, support = _shared_projector_case(kind)
        assert_run_equals_per_state_projector_loop(
            mdp, support, 1000, 23, sampler, report_interval=13
        )

    @pytest.mark.parametrize("kind", ["grid", "mixed"])
    @pytest.mark.parametrize("check_block", [5, 128])
    def test_renormalised_run_equals_per_state_projector_loop(
        self, monkeypatch, kind, check_block
    ):
        # Weights of mass 1 + 5e-10 blended at alpha = 0.5 drift by 2.5e-10, so
        # each state's first visit renormalises; 12 states spread those
        # over several checks, and within one check where it is long.
        import mmdrl.td as td_module

        monkeypatch.setattr(td_module, "_CHECK_BLOCK", check_block)
        mdp, support = _shared_projector_case(kind, n_states=12)
        renormalizations = assert_run_equals_per_state_projector_loop(
            mdp, support, 600, 23, "uniform", report_interval=13,
            schedule=make_schedule(0.6, 0.5), init=_off_mass_init(mdp, support),
        )
        assert renormalizations >= 12

    def test_td_cat_dsm_workload_seed(self):
        # The td-cat-dsm benchmark workload's run for configured seed 0
        # (algorithm stream 2): 50,000 uniform steps on dsm_3 over
        # simplex-grid 10, crossing blocks of the default size.
        root = Path(__file__).resolve().parents[1]
        mdp = TabularMDP.load(root / "perfbench" / "mdps" / "dsm_3.json")
        support = SupportMap.simplex_grid(3, 3, 10, scale=mdp.v_max)
        assert_run_equals_per_state_projector_loop(
            mdp, support, 50_000, 0, "uniform", report_interval=1000, stream=2
        )

    def test_init_equals_per_state_projection(self):
        from mmdrl import SimplexProjector, point_init

        mdp = random_mdp(3, 2, 0.8, 1.0, rng_stream(24))
        init = point_init(mdp)
        for support in (
            SupportMap.uniform_grid(3, 2, 9, mdp.v_max),
            SupportMap.random(3, 2, 7, mdp.v_max, rng_stream(25)),
        ):
            state = init_td_state(mdp, support, SPEC)
            for x in range(3):
                own = SimplexProjector(support[x], SPEC).project(
                    init[x].atoms, init[x].weights
                )
                assert np.array_equal(state.estimate[x].weights, own.weights)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    rows=st.integers(1, 130),
    start=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_reduce_equals_per_row_reduce(n, rows, start, seed):
    # categorical_td_run checks a block's weight sums with one reduce over
    # a slice of its buffer; each sum must equal the reduce of its row alone.
    rng = rng_stream(seed)
    buf = rng.uniform(-1.0, 2.0, size=(start + rows, n))
    buf *= 10.0 ** rng.integers(-8, 9, size=buf.shape)
    block = buf[start:]
    sums = np.add.reduce(block, axis=1)
    assert np.array_equal(sums, [np.add.reduce(row) for row in block])


class TestEwpGradient:
    def test_zero_at_coincident_configuration(self):
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad = ewp_mmd_sq_gradient(theta, theta.copy(), 1.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_single_particle_sign_descent(self):
        theta = np.array([[0.3]])
        target = np.array([[0.9]])
        grad = ewp_mmd_sq_gradient(theta, target, 1.0)
        # MMD^2 = |theta - g|: slope is -1 left of the target.
        assert grad[0, 0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    def test_matches_finite_differences(self, alpha):
        rng = rng_stream(17)
        h = 1e-6
        for _ in range(20):
            m, n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
            theta = rng.uniform(0, 2, size=(m, d))
            targets = rng.uniform(0, 2, size=(n, d))
            grad = ewp_mmd_sq_gradient(theta, targets, alpha)
            for i in range(m):
                for j in range(d):
                    plus = theta.copy()
                    plus[i, j] += h
                    minus = theta.copy()
                    minus[i, j] -= h
                    fd = (
                        ewp_mmd_sq_objective(plus, targets, alpha)
                        - ewp_mmd_sq_objective(minus, targets, alpha)
                    ) / (2 * h)
                    assert grad[i, j] == pytest.approx(fd, abs=1e-5)

    def test_objective_matches_mmd_squared(self):
        rng = rng_stream(18)
        theta = rng.uniform(0, 2, size=(4, 2))
        targets = rng.uniform(0, 2, size=(6, 2))
        p = DiscreteMeasure(theta, np.full(4, 0.25))
        q = DiscreteMeasure(targets, np.full(6, 1 / 6))
        assert ewp_mmd_sq_objective(theta, targets, 1.0) == pytest.approx(
            mmd_squared(p, q, SPEC), abs=1e-12
        )

    def test_small_step_decreases_objective(self):
        rng = rng_stream(19)
        for _ in range(10):
            theta = rng.uniform(0, 2, size=(3, 2))
            targets = rng.uniform(0, 2, size=(4, 2))
            grad = ewp_mmd_sq_gradient(theta, targets, 1.0)
            if np.linalg.norm(grad) < 1e-12:
                continue
            before = ewp_mmd_sq_objective(theta, targets, 1.0)
            after = ewp_mmd_sq_objective(theta - 1e-5 * grad, targets, 1.0)
            assert after <= before


class TestEwpTd:
    def test_step_updates_only_visited_state(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(20))
        particles = rng_stream(21).uniform(0, 5, size=(3, 4, 2))
        tr = Transition(1, mdp.cumulants[1], 2)
        out = ewp_td_step(particles, tr, SPEC, 0.1, mdp.gamma)
        np.testing.assert_array_equal(out[0], particles[0])
        np.testing.assert_array_equal(out[2], particles[2])
        assert not np.array_equal(out[1], particles[1])

    def test_stationary_at_coincident_target(self):
        # Self-loop at the true return: target equals current particles.
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        particles = np.full((1, 3, 1), 1.0)
        tr = Transition(0, mdp.cumulants[0], 0)
        out = ewp_td_step(particles, tr, SPEC, 0.5, mdp.gamma)
        np.testing.assert_allclose(out, particles, atol=1e-12)

    def test_run_reports_and_preserves_shape(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(22))
        particles, report = ewp_td_run(
            mdp, 8, SPEC, make_schedule(), 2000, rng_stream(23),
            report_interval=500,
        )
        assert particles.shape == (3, 8, 2)
        assert len(report.steps) == 4
        assert all(np.isfinite(a) for a in report.mean_step_size)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_run_equals_scalar_draw_reference(self, small_blocks, dim):
        mdp = random_mdp(4, dim, 0.8, 1.0, rng_stream(25))
        rng, ref_rng = rng_stream(26), rng_stream(26)
        particles, report = ewp_td_run(
            mdp, 5, SPEC, make_schedule(), 600, rng, report_interval=100
        )
        ref_particles, ref_steps, ref_sizes = reference_ewp_td_run(
            mdp, 5, SPEC, make_schedule(), 600, ref_rng, report_interval=100
        )
        assert np.array_equal(particles, ref_particles)
        assert report.steps == ref_steps
        assert report.mean_step_size == ref_sizes
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("report_interval", [0, -3])
    def test_report_interval_below_one_rejected(self, report_interval):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(22))
        with pytest.raises(InvalidInputError, match="report_interval"):
            ewp_td_run(
                mdp, 4, SPEC, make_schedule(), 5, rng_stream(0),
                report_interval=report_interval,
            )

    def test_run_approaches_truth_on_self_loop(self):
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        particles, _ = ewp_td_run(
            mdp, 4, SPEC, make_schedule(scale=0.5), 5000, rng_stream(24),
            init=np.zeros((1, 4, 1)),
        )
        np.testing.assert_allclose(particles, 1.0, atol=0.05)
