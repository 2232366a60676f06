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
    StepSchedule,
    TabularMDP,
    categorical,
    categorical_dp_solve,
    categorical_td_run,
    dsm_mdp,
    empirical,
    energy_kernel,
    ewp_mmd_sq_gradient,
    ewp_mmd_sq_objective,
    ewp_td_run,
    init_td_state,
    mmd,
    mmd_squared,
    project_signed,
    pushforward,
    random_mdp,
    rng_stream,
    sup_mmd,
    weights_on_support,
)
from mmdrl.kernels import gram
from mmdrl.mdp import sample_visits
from mmdrl.td import TdState

from util import reference_ewp_td_run, semimetric_matrix, signed_dp_fixed_point

SPEC = energy_kernel(1.0)


def point_masses(n_states, dim):
    """Point masses at the origin for ``n_states`` states in dimension ``dim``."""
    return ReturnDistFn(tuple(DiscreteMeasure.point(np.zeros(dim)) for _ in range(n_states)))


class TestSchedule:
    def test_first_visit_equals_scale(self):
        schedule = StepSchedule(0.6, 0.5)
        assert schedule(1) == pytest.approx(0.5)

    def test_power_of_two_value(self):
        # 32^(-3/5) = 2^(-3) exactly.
        schedule = StepSchedule(0.6, 1.0)
        assert schedule(32) == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("exponent", [0.4, 0.5, 1.2, 0.0])
    def test_square_summability_enforced(self, exponent):
        with pytest.raises(InvalidInputError):
            StepSchedule(exponent)

    def test_boundary_exponent_allowed(self):
        assert StepSchedule(1.0)(10) == pytest.approx(0.1)

    def test_visits_start_at_one(self):
        with pytest.raises(InvalidInputError):
            StepSchedule()(0)


class TestStochasticBackup:
    """The sampled one-step backup of a transition x -> y: the estimate at
    y pushed through z -> r(x) + gamma z."""

    def test_point_mass_pushforward(self):
        eta = ReturnDistFn((DiscreteMeasure.point([0.0]),))
        out = pushforward(eta[0], np.array([1.0]), 0.5)
        np.testing.assert_allclose(out.atoms, [[1.0]])

    def test_zero_discount_gives_reward(self):
        eta = ReturnDistFn(
            (DiscreteMeasure(np.array([[3.0], [7.0]]), np.array([0.5, 0.5])),)
        )
        out = pushforward(eta[0], np.array([2.0]), 0.0)
        np.testing.assert_allclose(np.unique(out.atoms), [2.0])

    def test_mixture_atomwise(self):
        eta = ReturnDistFn(
            (
                DiscreteMeasure.point([9.0]),
                DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.25, 0.75])),
            )
        )
        out = pushforward(eta[1], np.array([1.0]), 0.5)
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
        schedule = StepSchedule(0.6, 1.0)  # first visit: alpha = 1
        state, out, (x, y) = one_step(mdp, support, schedule, rng_stream(1))
        backup = pushforward(state.estimate[y], mdp.cumulants[x], mdp.gamma)
        projected = project_signed(backup, support[x], SPEC)
        np.testing.assert_allclose(
            out.estimate[x].weights, projected.weights, atol=1e-9
        )

    def test_vanishing_step_freezes_estimate(self):
        mdp, support = small_setup(1)
        schedule = StepSchedule(0.6, 1e-12)
        state, out, (x, _) = one_step(mdp, support, schedule, rng_stream(2))
        np.testing.assert_allclose(
            out.estimate[x].weights,
            weights_on_support(state.estimate[x], support[x]),
            atol=1e-11,
        )

    def test_other_states_untouched(self):
        mdp, support = small_setup(2)
        schedule = StepSchedule(0.6, 1.0)
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
        schedule = StepSchedule(0.6, 1.0)
        rng = rng_stream(4)
        for _ in range(200):
            _, state, (x, _) = one_step(mdp, support, schedule, rng, init=state)
            assert abs(state.estimate[x].mass - 1.0) <= 1e-10

    def test_visit_counts_drive_schedule(self):
        mdp, support = small_setup(5)
        schedule = StepSchedule(0.6, 1.0)
        state, out, (x, _) = one_step(mdp, support, schedule, rng_stream(5))
        expected = np.zeros(3, dtype=np.int64)
        expected[x] = 1
        assert np.array_equal(out.visit_counts, expected)
        assert out.step == state.step + 1


class TestCategoricalTdRun:
    def test_zero_steps_returns_initialization(self):
        mdp, support = small_setup(6)
        state, report = categorical_td_run(
            mdp, support, SPEC, StepSchedule(), 0, rng_stream(0)
        )
        init = init_td_state(mdp, support, SPEC)
        assert sup_mmd(state.estimate, init.estimate, SPEC) <= 1e-12
        assert report.steps == []

    def test_one_step_calls_continue_one_run(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(27))
        support = SupportMap.uniform_grid(3, 2, 9, mdp.v_max)
        whole, _ = categorical_td_run(mdp, support, SPEC, StepSchedule(), 40, rng_stream(28))
        rng = rng_stream(28)
        state = None
        for _ in range(40):
            state, _ = categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 1, rng, init=state
            )
        assert state.step == whole.step == 40
        assert np.array_equal(state.visit_counts, whole.visit_counts)
        for x in range(3):
            assert np.array_equal(state.estimate[x].weights, whole.estimate[x].weights)

    def test_single_state_converges_to_known_fixed_point(self):
        # Self-loop, on-grid return r/(1-gamma) = 1: the estimate should
        # concentrate there.
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        support = SupportMap.constant(np.array([[0.0], [0.5], [1.0]]), 1)
        state, _ = categorical_td_run(
            mdp, support, SPEC, StepSchedule(), 10_000, rng_stream(7)
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
            StepSchedule(),
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
            backup = pushforward(eta[y], mdp.cumulants[x], mdp.gamma)
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

    def test_final_estimate_near_closed_form_fixed_point(self):
        # Criterion 8's run, measured against tests/util.py's closed-form
        # signed fixed point, with the MMD from raw norms: no code shared
        # with SignedProjector, gram or cross_kernel.
        rng = rng_stream(7, 0)
        mdp = dsm_mdp(rng.dirichlet(np.ones(3), size=3), 0.9)
        support = SupportMap.simplex_grid(3, 3, 10, scale=1.0)
        state, _ = categorical_td_run(
            mdp, support, SPEC, StepSchedule(0.6, 1.0), 200_000, rng_stream(7, 2)
        )
        fixed_point = signed_dp_fixed_point(mdp, support, 1.0)
        for x in range(3):
            delta = state.estimate[x].weights - fixed_point[x]
            mmd_sq = -0.5 * delta @ semimetric_matrix(support[x], support[x], 1.0) @ delta
            assert np.sqrt(max(mmd_sq, 0.0)) <= 0.05

    def test_trajectory_sampler_runs(self):
        mdp, support = small_setup(12)
        state, _ = categorical_td_run(
            mdp,
            support,
            SPEC,
            StepSchedule(),
            500,
            rng_stream(13),
            state_sampler="trajectory",
        )
        assert state.step == 500

    def test_unknown_sampler_rejected(self):
        mdp, support = small_setup(14)
        with pytest.raises(InvalidInputError):
            categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 10, rng_stream(0),
                state_sampler="sweep",
            )

    @pytest.mark.parametrize("report_interval", [0, -1])
    def test_report_interval_below_one_rejected(self, report_interval):
        mdp, support = small_setup(14)
        with pytest.raises(InvalidInputError, match="report_interval"):
            categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 10, rng_stream(0),
                report_interval=report_interval,
            )
        # With no steps there is nothing to report.
        state, report = categorical_td_run(
            mdp, support, SPEC, StepSchedule(), 0, rng_stream(0),
            report_interval=report_interval,
        )
        assert state.step == 0 and report.steps == []

    @pytest.mark.parametrize("n_states, dim", [(2, 1), (3, 2), (4, 1)])
    def test_mismatched_reference_rejected(self, n_states, dim):
        # The 3-state d = 1 MDP of small_setup; before, a 2-state reference
        # raised IndexError at the first report and a d = 2 one ValueError.
        mdp, support = small_setup(14)
        reference = point_masses(n_states, dim)
        with pytest.raises(InvalidInputError, match="reference holds"):
            categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 10, rng_stream(0),
                reference=reference, report_interval=5,
            )

    @pytest.mark.parametrize("n_states, dim", [(2, 1), (4, 1), (3, 2)])
    def test_mismatched_init_rejected(self, n_states, dim):
        # Unchecked, an init for 2 of the 3 states fails on an index.
        mdp, support = small_setup(14)
        init = TdState(point_masses(n_states, dim), np.zeros(n_states, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="init holds"):
            categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 10, rng_stream(0), init=init
            )

    def test_mismatched_init_visit_counts_rejected(self):
        mdp, support = small_setup(14)
        state = init_td_state(mdp, support, SPEC)
        init = TdState(state.estimate, np.zeros(2, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="init visit counts"):
            categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 10, rng_stream(0), init=init
            )

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_init_visit_counts_rejected(self, count):
        # Step sizes scale * k^(-exponent) need visit counts k >= 1.
        mdp, support = small_setup(14)
        state = init_td_state(mdp, support, SPEC)
        init = TdState(state.estimate, np.full(3, count, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="init visit counts"):
            categorical_td_run(
                mdp, support, SPEC, StepSchedule(), 10, rng_stream(0), init=init
            )


def augmented_step(w_x, w_y, affine, alpha):
    """categorical_td_run's step: the (1 - alpha, alpha) blend of [w_x, 1]
    and A [w_y, 1], with A = [[M, b], [0, 1]]."""
    _, _, a_map = affine
    rows = np.stack([np.append(w_x, 1.0), a_map @ np.append(w_y, 1.0)])
    blended = np.array([1.0 - alpha, alpha]) @ rows
    assert blended[-1] == 1.0
    return blended[:-1]


def textbook_step(w_x, w_y, affine, alpha):
    """(1 - alpha) w_x + alpha (M w_y + b), without augmented vectors."""
    m_map, b_map, _ = affine
    return (1.0 - alpha) * w_x + alpha * (m_map @ w_y + b_map)


def per_state_projector_td_run(
    mdp, support, spec, schedule, steps, rng, state_sampler, reference,
    report_interval=250, init=None, step=augmented_step,
):
    """categorical_td_run with one projector per state, no helper calls and
    the mass drift checked at every step: the loop as it was before
    projectors were shared between states, taking each step by ``step``.
    Returns (weights, visits, sup-MMD series, mean step sizes, renormalised
    steps); the series is empty without a reference."""
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
    ref_weights = reference and [weights_on_support(reference[x], support[x]) for x in range(n)]
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
            m_map, b_map = projectors[x].affine_map(shifted)
            n_x, n_y = m_map.shape
            a_map = np.zeros((n_x + 1, n_y + 1))
            a_map[:n_x, :n_y] = m_map
            a_map[:n_x, n_y] = b_map
            a_map[n_x, n_y] = 1.0
            maps[(x, y)] = m_map, b_map, a_map
        new_w = step(weights[x], weights[y], maps[(x, y)], alpha)
        drift = float(new_w.sum()) - 1.0
        if abs(drift) > MASS_DRIFT_TOL:
            new_w = new_w / (1.0 + drift)
            renormalizations += 1
        weights[x] = new_w
        if state_sampler == "trajectory":
            x = y
        if t % report_interval == 0 or t == steps:
            if ref_weights:
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
    schedule = schedule or StepSchedule()
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


def _shared_projector_case(kind, n_states=3, dim=2):
    mdp = random_mdp(n_states, dim, 0.8, 1.0, rng_stream(21))
    if kind == "random":
        return mdp, SupportMap.random(n_states, dim, 7, mdp.v_max, rng_stream(22))
    if kind == "mixed":
        # What a support file may hold: a different atom count per state.
        rng = rng_stream(22)
        return mdp, SupportMap(tuple(
            rng.uniform(0.0, mdp.v_max, size=(5 + 2 * (x % 3), dim)) for x in range(n_states)
        ))
    return mdp, SupportMap.uniform_grid(n_states, dim, 9, mdp.v_max)


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
            schedule=StepSchedule(0.6, 0.5), init=_off_mass_init(mdp, support),
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


class TestRoundOffGuard:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["random", "grid", "mixed"])
    @pytest.mark.parametrize("sampler", ["uniform", "trajectory"])
    def test_run_stays_within_round_off_of_textbook_step(self, monkeypatch, dim, kind, sampler):
        # The augmented map and the (1 - alpha, alpha) blend round
        # differently from (1 - alpha) w_x + alpha (M w_y + b), but only at
        # round-off; the bookkeeping does not move at all.
        import mmdrl.td as td_module

        made = []
        views = td_module._views

        def recording_views(slots):
            made.append(views(slots))
            return made[-1]

        monkeypatch.setattr(td_module, "_views", recording_views)
        mdp, support = _shared_projector_case(kind, dim=dim)
        schedule = StepSchedule()
        state, report = categorical_td_run(
            mdp, support, SPEC, schedule, 5000, rng_stream(31, dim),
            state_sampler=sampler, report_interval=500,
        )
        weights, visits, _, sizes, renormalizations = per_state_projector_td_run(
            mdp, support, SPEC, schedule, 5000, rng_stream(31, dim), sampler, None,
            500, step=textbook_step,
        )
        gap = max(np.max(np.abs(state.estimate[x].weights - weights[x])) for x in range(3))
        assert gap <= 1e-12
        assert np.array_equal(state.visit_counts, visits)
        assert report.mean_step_size == sizes
        assert report.renormalizations == renormalizations
        # The last _views call makes the slots that hold each state's
        # weights between blocks; both rows still carry an exact 1.
        own_slots = [slot for slot, _, _ in made[-1]]
        assert len(own_slots) == mdp.n_states
        assert all(np.all(slot[:, -1] == 1.0) for slot in own_slots)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    rows=st.integers(1, 130),
    start=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_reduce_equals_per_row_reduce(n, rows, start, seed):
    # categorical_td_run checks a block's weight sums with one reduce over
    # the w parts of its (rows, 2, n + 1) slot pool; each sum must equal the
    # reduce of its row alone.
    rng = rng_stream(seed)
    buf = rng.uniform(-1.0, 2.0, size=(start + rows, 2, n + 1))
    buf *= 10.0 ** rng.integers(-8, 9, size=buf.shape)
    block = buf[start:, 0, :-1]
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


def particle_state(particles, visit_counts=None):
    """A ``TdState`` holding the equally weighted (S, m, d) ``particles``."""
    estimate = ReturnDistFn(tuple(empirical(p) for p in particles))
    if visit_counts is None:
        visit_counts = np.zeros(len(particles), dtype=np.int64)
    return TdState(estimate, visit_counts)


def stacked(state):
    """The (S, m, d) particles of a particle TD state."""
    return np.stack([measure.atoms for measure in state.estimate])


def ewp_one_step(mdp, particles, learn_rate, rng):
    """``ewp_td_run`` for one step at step size ``learn_rate`` (a first
    visit): (particles after, the visited (x, y) pair)."""
    x, y = next(sample_visits(mdp, 1, copy.deepcopy(rng)))
    out, _ = ewp_td_run(
        mdp, particles.shape[1], SPEC, StepSchedule(0.6, learn_rate), 1, rng,
        init=particle_state(particles),
    )
    return stacked(out), (x, y)


class TestEwpTd:
    def test_step_updates_only_visited_state(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(20))
        particles = rng_stream(21).uniform(0, 5, size=(3, 4, 2))
        out, (x, y) = ewp_one_step(mdp, particles, 0.1, rng_stream(22))
        for z in set(range(3)) - {x}:
            np.testing.assert_array_equal(out[z], particles[z])
        # One gradient step of the squared MMD to r(x) + gamma * particles[y].
        targets = mdp.cumulants[x] + mdp.gamma * particles[y]
        grad = ewp_mmd_sq_gradient(particles[x], targets, SPEC.alpha)
        np.testing.assert_array_equal(out[x], particles[x] - 0.1 * grad)
        assert not np.array_equal(out[x], particles[x])

    def test_stationary_at_coincident_target(self):
        # Self-loop at the true return: target equals current particles.
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        particles = np.full((1, 3, 1), 1.0)
        out, _ = ewp_one_step(mdp, particles, 0.5, rng_stream(0))
        np.testing.assert_allclose(out, particles, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, match",
        [
            ((3, 4), "init holds 3 measures of dimension 1; the MDP has 3 states of dimension 2"),
            ((2, 4, 2), "init holds 2 measures of dimension 2; the MDP has 3 states"),
            ((3, 4, 1), "init holds 3 measures of dimension 1; the MDP has 3 states of dimension 2"),
            ((3, 5, 2), "state 0 carries 5 particles, expected 4"),
        ],
        ids=["no-dimension-axis", "two-of-three-states", "dimension-1", "five-particles"],
    )
    def test_misshapen_init_rejected(self, shape, match):
        # Unchecked, a wrong state count or dimension fails inside a step,
        # and 5 particles for m = 4 would run as if m were 5.
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(20))
        with pytest.raises(InvalidInputError, match=match):
            ewp_td_run(
                mdp, 4, SPEC, StepSchedule(), 10, rng_stream(0),
                init=particle_state(np.ones(shape)),
            )

    @pytest.mark.parametrize(
        "visit_counts, match",
        [([0, 0], r"has shape \(2,\), expected \(3,\)"), ([0, np.nan, 0], "holds non-finite entries")],
        ids=["two-of-three-states", "nan"],
    )
    def test_mismatched_init_visit_counts_rejected(self, visit_counts, match):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(20))
        init = particle_state(np.ones((3, 4, 2)), np.array(visit_counts))
        with pytest.raises(InvalidInputError, match="init visit counts " + match):
            ewp_td_run(mdp, 4, SPEC, StepSchedule(), 10, rng_stream(0), init=init)

    def test_unequal_init_weights_rejected(self):
        mdp = random_mdp(1, 1, 0.9, 1.0, rng_stream(20))
        measure = DiscreteMeasure(np.arange(4.0), np.array([0.1, 0.2, 0.3, 0.4]))
        init = TdState(ReturnDistFn((measure,)), np.zeros(1, dtype=np.int64))
        with pytest.raises(InvalidInputError, match="not equally weighted"):
            ewp_td_run(mdp, 4, SPEC, StepSchedule(), 10, rng_stream(0), init=init)

    def test_non_finite_init_rejected(self):
        # A NaN particle cannot enter a start state, so it never reaches a step.
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(20))
        init = np.ones((3, 4, 2))
        init[1, 2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="must be finite"):
            ewp_td_run(
                mdp, 4, SPEC, StepSchedule(), 10, rng_stream(0), init=particle_state(init)
            )

    def test_one_step_calls_continue_one_run(self):
        # Visit counts carry over in the returned state, so each call steps
        # by the schedule where the single run would.
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(27))
        whole, _ = ewp_td_run(mdp, 4, SPEC, StepSchedule(), 20, rng_stream(28))
        rng = rng_stream(28)
        state = None
        for _ in range(20):
            state, _ = ewp_td_run(mdp, 4, SPEC, StepSchedule(), 1, rng, init=state)
        assert state.step == whole.step == 20
        assert np.array_equal(state.visit_counts, whole.visit_counts)
        assert np.array_equal(stacked(state), stacked(whole))

    def test_run_reports_and_preserves_shape(self):
        mdp = random_mdp(3, 2, 0.9, 1.0, rng_stream(22))
        state, report = ewp_td_run(
            mdp, 8, SPEC, StepSchedule(), 2000, rng_stream(23),
            report_interval=500,
        )
        assert stacked(state).shape == (3, 8, 2)
        assert state.step == 2000 and state.visit_counts.sum() == 2000
        assert len(report.steps) == 4
        assert all(np.isfinite(a) for a in report.mean_step_size)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_run_equals_scalar_draw_reference(self, small_blocks, dim):
        mdp = random_mdp(4, dim, 0.8, 1.0, rng_stream(25))
        rng, ref_rng = rng_stream(26), rng_stream(26)
        state, report = ewp_td_run(
            mdp, 5, SPEC, StepSchedule(), 600, rng, report_interval=100
        )
        ref_particles, ref_steps, ref_sizes = reference_ewp_td_run(
            mdp, 5, SPEC, StepSchedule(), 600, ref_rng, report_interval=100
        )
        assert np.array_equal(stacked(state), ref_particles)
        assert report.steps == ref_steps
        assert report.mean_step_size == ref_sizes
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("report_interval", [0, -3])
    def test_report_interval_below_one_rejected(self, report_interval):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(22))
        with pytest.raises(InvalidInputError, match="report_interval"):
            ewp_td_run(
                mdp, 4, SPEC, StepSchedule(), 5, rng_stream(0),
                report_interval=report_interval,
            )

    @pytest.mark.parametrize("n_states, dim", [(1, 1), (2, 2), (3, 1)])
    def test_mismatched_reference_rejected(self, n_states, dim):
        mdp = random_mdp(2, 1, 0.9, 1.0, rng_stream(22))
        with pytest.raises(InvalidInputError, match="reference holds"):
            ewp_td_run(
                mdp, 4, SPEC, StepSchedule(), 10, rng_stream(0),
                reference=point_masses(n_states, dim), report_interval=5,
            )

    def test_run_approaches_truth_on_self_loop(self):
        mdp = TabularMDP(np.eye(1), np.array([[0.5]]), 0.5, r_max=1.0)
        state, _ = ewp_td_run(
            mdp, 4, SPEC, StepSchedule(scale=0.5), 5000, rng_stream(24),
            init=particle_state(np.zeros((1, 4, 1))),
        )
        np.testing.assert_allclose(stacked(state), 1.0, atol=0.05)


class TestOffSupportReference:
    """A reference whose atoms lie off the support: both engines report the
    distance ``evaluation.sup_mmd`` gives between their estimate and it."""

    @staticmethod
    def shifted_points(mdp):
        return ReturnDistFn(tuple(
            DiscreteMeasure.point(mdp.cumulants[x] + 0.37) for x in range(mdp.n_states)
        ))

    def test_categorical_distance_is_sup_mmd(self):
        mdp, support = small_setup(14)
        reference = self.shifted_points(mdp)
        # weights_on_support refuses it, so the run cannot take the engine's
        # distance on the support.
        with pytest.raises(InvalidInputError, match="outside the support"):
            weights_on_support(reference[0], support[0])
        state, report = categorical_td_run(
            mdp, support, SPEC, StepSchedule(), 200, rng_stream(5),
            reference=reference, report_interval=50,
        )
        assert report.steps == [50, 100, 150, 200]
        assert all(np.isfinite(report.sup_mmd))
        assert report.sup_mmd[-1] == sup_mmd(state.estimate, reference, SPEC)

    def test_particle_distance_is_sup_mmd(self):
        mdp = random_mdp(3, 2, 0.8, 1.0, rng_stream(27))
        reference = self.shifted_points(mdp)
        state, report = ewp_td_run(
            mdp, 6, SPEC, StepSchedule(), 200, rng_stream(28),
            reference=reference, report_interval=50,
        )
        assert report.steps == [50, 100, 150, 200]
        assert all(np.isfinite(report.sup_mmd))
        assert report.sup_mmd[-1] == sup_mmd(state.estimate, reference, SPEC)
