"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints a single PASS line with its headline numbers (visible
under ``pytest -s`` or ``-rA``); assertion failures mark the criterion
red. Heavyweight fixtures (the shared d=1 MDP suite with Monte Carlo
ground truth) are built once per session.
"""

import itertools
import time

import numpy as np
import pytest

from mmdrl import (
    DiscreteMeasure,
    EwpConfig,
    ReturnDistFn,
    ScalarDist,
    StepSchedule,
    SupportMap,
    categorical_dp_solve,
    categorical_td_run,
    cramer_distance,
    dsm_mdp,
    energy_kernel,
    ewp_mmd_sq_gradient,
    ewp_mmd_sq_objective,
    ewp_random_solve,
    exact_bellman,
    mmd,
    mmd_squared,
    project_signed,
    project_simplex,
    random_mdp,
    rng_stream,
    rollout_returns,
    sup_mmd,
    zeroshot_scalar,
)
from mmdrl.experiments import nonaffinity_certificate
from mmdrl.mdp import horizon_for_tail

from util import random_probability_measure, random_signed_measure

SPEC = energy_kernel(1.0)


def loglog_slope(sizes, values):
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(values), 1)[0])


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


@pytest.fixture(scope="module")
def d1_suite():
    """20 random 5-state d=1 MDPs with two independent 1e4-rollout oracles."""
    suite = []
    for idx in range(20):
        mdp = random_mdp(5, 1, 0.9, 1.0, rng_stream(1000 + idx))
        horizon = horizon_for_tail(mdp, 1e-3)
        oracle_a, oracle_b = [], []
        for x in range(5):
            oracle_a.append(
                DiscreteMeasure(
                    rollout_returns(mdp, x, horizon, 10_000, rng_stream(2000 + idx, x)),
                    np.full(10_000, 1e-4),
                )
            )
            oracle_b.append(
                DiscreteMeasure(
                    rollout_returns(mdp, x, horizon, 10_000, rng_stream(3000 + idx, x)),
                    np.full(10_000, 1e-4),
                )
            )
        floor = max(mmd(a, b, SPEC) for a, b in zip(oracle_a, oracle_b))
        suite.append((mdp, ReturnDistFn(tuple(oracle_a)), floor))
    return suite


def test_criterion_01_bellman_contraction():
    """Thm: the distributional backup contracts sup-MMD at rate gamma^(1/2)."""
    gamma, worst = 0.8, -np.inf
    with Stopwatch() as clock:
        rng = rng_stream(42)
        for trial in range(100):
            mdp = random_mdp(5, 2, gamma, 1.0, rng_stream(100 + trial))
            eta1 = ReturnDistFn(
                tuple(
                    random_probability_measure(rng, int(rng.integers(2, 7)), 2, low=0.0, high=mdp.v_max)
                    for _ in range(5)
                )
            )
            eta2 = ReturnDistFn(
                tuple(
                    random_probability_measure(rng, int(rng.integers(2, 7)), 2, low=0.0, high=mdp.v_max)
                    for _ in range(5)
                )
            )
            lhs = sup_mmd(exact_bellman(eta1, mdp), exact_bellman(eta2, mdp), SPEC)
            bound = gamma**0.5 * sup_mmd(eta1, eta2, SPEC) + 1e-9
            worst = max(worst, lhs - bound)
            assert lhs <= bound
    assert clock.seconds < 5.0
    print(
        f"\n[criterion 1] contraction: PASS "
        f"(worst margin {worst:+.2e}, {clock.seconds:.1f}s)"
    )


def test_criterion_02_projection_nonexpansion():
    """Both projections are nonexpansive in MMD."""
    with Stopwatch() as clock:
        rng = rng_stream(7)
        worst = -np.inf
        for trial in range(200):
            dim = int(rng.integers(1, 3))
            support = rng.uniform(0.0, 3.0, size=(int(rng.integers(2, 10)), dim))
            if trial % 2 == 0:
                p1 = random_probability_measure(rng, int(rng.integers(1, 6)), dim)
                p2 = random_probability_measure(rng, int(rng.integers(1, 6)), dim)
                out1 = project_simplex(p1, support, SPEC)
                out2 = project_simplex(p2, support, SPEC)
            else:
                p1 = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
                p2 = random_signed_measure(rng, int(rng.integers(1, 6)), dim)
                out1 = project_signed(p1, support, SPEC)
                out2 = project_signed(p2, support, SPEC)
            gap = mmd(out1, out2, SPEC) - mmd(p1, p2, SPEC)
            worst = max(worst, gap)
            assert gap <= 1e-9
    assert clock.seconds < 10.0
    print(
        f"\n[criterion 2] projection nonexpansion: PASS "
        f"(worst expansion {worst:+.2e}, {clock.seconds:.1f}s)"
    )


def test_criterion_03_categorical_dp_geometric():
    """Projected categorical DP converges geometrically on the DSM instance."""
    with Stopwatch() as clock:
        rng = rng_stream(7, 0)
        mdp = dsm_mdp(rng.dirichlet(np.ones(3), size=3), 0.9)
        support = SupportMap.simplex_grid(3, 3, 10, scale=1.0)
        assert support.sizes() == [66, 66, 66]
        report = categorical_dp_solve(mdp, support, SPEC, tol=1e-8, max_iter=400)
    assert report.converged
    assert report.iterations <= 400
    ratios = report.contraction_ratios()[3:]
    worst_ratio = max(ratios)
    assert worst_ratio <= 0.9**0.5 + 1e-6
    assert clock.seconds < 30.0
    print(
        f"\n[criterion 3] categorical DP: PASS "
        f"(iters {report.iterations}, worst ratio {worst_ratio:.4f} "
        f"<= {0.9 ** 0.5:.4f}, {clock.seconds:.1f}s)"
    )


def test_criterion_04_fixed_point_accuracy_scaling(d1_suite):
    """Fixed-point error shrinks with grid size at least like m^-0.35."""
    sizes = (8, 16, 32, 64, 128)
    with Stopwatch() as clock:
        errors = {m: [] for m in sizes}
        for mdp, oracle, floor in d1_suite:
            for m in sizes:
                support = SupportMap.uniform_grid(5, 1, m, mdp.v_max)
                report = categorical_dp_solve(mdp, support, SPEC, tol=1e-4, max_iter=300)
                raw = sup_mmd(report.final, oracle, SPEC)
                errors[m].append(max(raw - floor, 1e-4))
        medians = [float(np.median(errors[m])) for m in sizes]
        slope = loglog_slope(sizes, medians)
    assert slope <= -0.35
    assert clock.seconds < 300.0
    print(
        f"\n[criterion 4] fixed-point scaling: PASS "
        f"(medians {['%.3f' % v for v in medians]}, slope {slope:.2f} <= -0.35, "
        f"{clock.seconds:.0f}s)"
    )


def test_criterion_05_ewp_dp_scaling(d1_suite):
    """Randomized particle DP error scales like m^-1/2 (slope in [-0.7, -0.3])."""
    sizes = (16, 64, 256, 1024)
    with Stopwatch() as clock:
        errors = {m: [] for m in sizes}
        for idx, (mdp, oracle, floor) in enumerate(d1_suite):
            for m in sizes:
                config = EwpConfig(m=m, seed=idx)
                report = ewp_random_solve(
                    mdp, config, SPEC, rng=rng_stream(4000 + idx, m)
                )
                assert report.iterations == config.resolved_iterations(mdp.gamma, 1.0)
                raw = sup_mmd(report.final, oracle, SPEC)
                errors[m].append(max(raw - floor, 1e-4))
        medians = [float(np.median(errors[m])) for m in sizes]
        slope = loglog_slope(sizes, medians)
    assert -0.7 <= slope <= -0.3
    assert clock.seconds < 300.0
    print(
        f"\n[criterion 5] particle DP scaling: PASS "
        f"(medians {['%.3f' % v for v in medians]}, slope {slope:.2f} in [-0.7,-0.3], "
        f"{clock.seconds:.0f}s)"
    )


def test_criterion_06_signed_projection_affinity():
    """The mass-1 signed projection is an affine map of the target."""
    with Stopwatch() as clock:
        rng = rng_stream(99)
        worst = 0.0
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            support = rng.uniform(0.0, 3.0, size=(int(rng.integers(2, 9)), dim))
            atoms = rng.uniform(0.0, 3.0, size=(int(rng.integers(1, 6)), dim))
            w_p = rng.normal(size=atoms.shape[0])
            w_p[-1] = 1.0 - w_p[:-1].sum()
            w_q = rng.normal(size=atoms.shape[0])
            w_q[-1] = 1.0 - w_q[:-1].sum()
            lam = float(rng.uniform(0.0, 1.0))
            p = DiscreteMeasure(atoms, w_p)
            q = DiscreteMeasure(atoms, w_q)
            blend = DiscreteMeasure(atoms, lam * w_p + (1 - lam) * w_q)
            left = project_signed(blend, support, SPEC)
            right = DiscreteMeasure(
                support,
                lam * project_signed(p, support, SPEC).weights
                + (1 - lam) * project_signed(q, support, SPEC).weights,
            )
            gap = mmd(left, right, SPEC)
            worst = max(worst, gap)
            assert gap <= 1e-8
    assert clock.seconds < 5.0
    print(
        f"\n[criterion 6] signed affinity: PASS "
        f"(worst gap {worst:.2e}, {clock.seconds:.1f}s)"
    )


def test_criterion_07_nonaffinity_certificate():
    """The planar-grid instance reproduces the tabulated projection weights.

    The tabulated columns associate as: first column = mixture of
    projections, second column = projected mixture (verified against an
    independent QP solver during development).
    """
    mixture_of_projections_column = {
        (0, 0): 0.0, (0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0,
        (1, 0): 0.0, (1, 1): 0.1999, (1, 2): 0.1999, (1, 3): 0.0,
        (2, 0): 0.0937, (2, 1): 0.2062, (2, 2): 0.1999, (2, 3): 0.0,
        (3, 0): 0.0937, (3, 1): 0.0063, (3, 2): 0.0, (3, 3): 0.0,
    }
    projected_mixture_column = {
        (0, 0): 0.0, (0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0,
        (1, 0): 0.0, (1, 1): 0.2057, (1, 2): 0.1959, (1, 3): 0.0,
        (2, 0): 0.07957, (2, 1): 0.2413, (2, 2): 0.2026, (2, 3): 0.0,
        (3, 0): 0.0787, (3, 1): 0.0, (3, 2): 0.0, (3, 3): 0.0,
    }
    with Stopwatch() as clock:
        cert = nonaffinity_certificate(1.0)
        worst = 0.0
        for idx, atom in enumerate(cert["support"]):
            key = (int(atom[0]), int(atom[1]))
            d1 = abs(cert["projected_mixture"][idx] - projected_mixture_column[key])
            d2 = abs(
                cert["mixture_of_projections"][idx]
                - mixture_of_projections_column[key]
            )
            worst = max(worst, d1, d2)
            assert d1 <= 0.01 and d2 <= 0.01, f"atom {key}: off by {max(d1, d2)}"
        corner = cert["projected_mixture"][0]
        assert abs(corner) <= 1e-6
        assert cert["mmd_gap"] >= 1e-3
    assert clock.seconds < 1.0
    print(
        f"\n[criterion 7] non-affinity certificate: PASS "
        f"(worst weight error {worst:.4f}, gap {cert['mmd_gap']:.4f}, "
        f"{clock.seconds:.2f}s)"
    )


def test_criterion_08_categorical_td_convergence():
    """Signed categorical TD approaches the signed DP fixed point."""
    with Stopwatch() as clock:
        rng = rng_stream(7, 0)
        mdp = dsm_mdp(rng.dirichlet(np.ones(3), size=3), 0.9)
        support = SupportMap.simplex_grid(3, 3, 10, scale=1.0)
        reference = categorical_dp_solve(
            mdp, support, SPEC, tol=1e-10, max_iter=2000, projection="signed"
        ).final
        _, report = categorical_td_run(
            mdp,
            support,
            SPEC,
            StepSchedule(0.6, 1.0),
            200_000,
            rng_stream(7, 2),
            reference=reference,
            report_interval=1000,
        )
        series = np.asarray(report.sup_mmd)
        decile = len(series) // 10
        first = float(np.median(series[:decile]))
        last = float(np.median(series[-decile:]))
    assert series[-1] <= 0.05
    assert last <= first
    assert clock.seconds < 120.0
    print(
        f"\n[criterion 8] categorical TD: PASS "
        f"(final {series[-1]:.4f} <= 0.05, deciles {first:.4f} -> {last:.4f}, "
        f"{clock.seconds:.0f}s)"
    )


def test_criterion_09_zeroshot_error_trend():
    """Zero-shot Cramer error decreases monotonically with grid size."""
    sizes = (16, 64, 256)
    with Stopwatch() as clock:
        errors = {m: [] for m in sizes}
        for idx in range(20):
            mdp = random_mdp(5, 2, 0.9, 1.0, rng_stream(5000 + idx))
            horizon = horizon_for_tail(mdp, 1e-3)
            oracle_samples = [
                rollout_returns(mdp, x, horizon, 10_000, rng_stream(6000 + idx, x))
                for x in range(5)
            ]
            reward_rng = rng_stream(7000 + idx)
            rewards = []
            for _ in range(10):
                w = reward_rng.normal(size=2)
                rewards.append(w / np.linalg.norm(w))
            for m in sizes:
                support = SupportMap.uniform_grid(5, 2, m, mdp.v_max)
                report = categorical_dp_solve(mdp, support, SPEC, tol=1e-3, max_iter=250)
                for w in rewards:
                    per_state = []
                    for x in range(5):
                        predicted = zeroshot_scalar(report.final[x], w)
                        scalars = oracle_samples[x] @ w
                        truth = ScalarDist(
                            scalars, np.full(scalars.shape[0], 1e-4)
                        )
                        per_state.append(cramer_distance(predicted, truth))
                    errors[m].append(float(np.mean(per_state)))
        medians = [float(np.median(errors[m])) for m in sizes]
    assert medians[0] > medians[1] > medians[2]
    assert clock.seconds < 600.0
    print(
        f"\n[criterion 9] zero-shot trend: PASS "
        f"(medians {['%.4f' % v for v in medians]} strictly decreasing, "
        f"{clock.seconds:.0f}s)"
    )


def test_criterion_10_signed_metric_axioms():
    """MMD is a metric on mass-1 signed measures."""
    with Stopwatch() as clock:
        rng = rng_stream(123)
        for trial in range(500):
            dim = int(rng.integers(1, 4))
            p = random_signed_measure(rng, int(rng.integers(1, 7)), dim)
            q = random_signed_measure(rng, int(rng.integers(1, 7)), dim)
            r = random_signed_measure(rng, int(rng.integers(1, 7)), dim)
            d_pq = mmd(p, q, SPEC)
            assert d_pq == mmd(q, p, SPEC)  # exact symmetry
            assert d_pq <= mmd(p, r, SPEC) + mmd(r, q, SPEC) + 1e-9
            assert d_pq > 1e-9  # distinct random measures separate
            # Equal after merge: permuted atoms with dyadically split mass.
            perm = rng.permutation(p.n_atoms)
            split = DiscreteMeasure(
                np.concatenate([p.atoms[perm], p.atoms[:1]]),
                np.concatenate([p.weights[perm], [0.0]]),
            )
            assert mmd(p, split, SPEC) == 0.0
    assert clock.seconds < 5.0
    print(
        f"\n[criterion 10] signed metric axioms: PASS "
        f"(500 triples, {clock.seconds:.1f}s)"
    )


def test_criterion_11_estimator_cross_checks():
    """Cramer-energy identity and the particle-gradient finite-difference check."""
    with Stopwatch() as clock:
        rng = rng_stream(321)
        worst_cramer = 0.0
        for _ in range(100):
            def scalar_dist():
                n = int(rng.integers(1, 8))
                atoms = rng.uniform(-2.0, 2.0, size=n)
                w = rng.uniform(0.05, 1.0, size=n)
                return ScalarDist(atoms, w / w.sum())

            p, q = scalar_dist(), scalar_dist()
            energy_sq = 2.0 * mmd_squared(p.to_measure(), q.to_measure(), SPEC)
            gap = abs(cramer_distance(p, q) ** 2 - 0.5 * energy_sq)
            worst_cramer = max(worst_cramer, gap)
            assert gap <= 1e-9

        worst_grad = 0.0
        h = 1e-6
        for _ in range(100):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 3))
            theta = rng.uniform(0.0, 2.0, size=(m, dim))
            targets = rng.uniform(0.0, 2.0, size=(n, dim))
            grad = ewp_mmd_sq_gradient(theta, targets, 1.0)
            i = int(rng.integers(m))
            j = int(rng.integers(dim))
            plus = theta.copy()
            plus[i, j] += h
            minus = theta.copy()
            minus[i, j] -= h
            fd = (
                ewp_mmd_sq_objective(plus, targets, 1.0)
                - ewp_mmd_sq_objective(minus, targets, 1.0)
            ) / (2 * h)
            gap = abs(grad[i, j] - fd)
            worst_grad = max(worst_grad, gap)
            assert gap <= 1e-5
    assert clock.seconds < 10.0
    print(
        f"\n[criterion 11] estimator cross-checks: PASS "
        f"(cramer gap {worst_cramer:.1e}, gradient gap {worst_grad:.1e}, "
        f"{clock.seconds:.1f}s)"
    )
