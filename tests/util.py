"""Shared helpers for building random test fixtures."""

import numpy as np

from mmdrl import DiscreteMeasure
from mmdrl.evaluation import _ATOM_MERGE
from mmdrl.kernels import MERGE_TOL


def semimetric_matrix(a, b, alpha):
    """rho(a_i, b_j) = ||a_i - b_j||^alpha from ``np.linalg.norm``, with no
    code of the package's kernels."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** alpha


def random_signed_measure(rng, n_atoms, dim, spread=3.0):
    """Mass-1 measure with signed weights."""
    atoms = rng.uniform(-spread, spread, size=(n_atoms, dim))
    w = rng.uniform(-1.0, 2.0, size=n_atoms)
    total = np.sum(w)
    if abs(total) < 1e-3:
        w = np.abs(w)
        total = np.sum(w)
    return DiscreteMeasure(atoms, w / total)


def random_probability_measure(rng, n_atoms, dim, spread=3.0, low=None, high=None):
    """Mass-1 measure with strictly positive weights."""
    if low is None:
        low, high = -spread, spread
    atoms = rng.uniform(low, high, size=(n_atoms, dim))
    w = rng.uniform(0.1, 1.0, size=n_atoms)
    return DiscreteMeasure(atoms, w / np.sum(w))


# Reference bodies of evaluation.ScalarDist and evaluation.cramer_distance
# before the sorted fast paths: a stable argsort of every input, and
# breakpoints from np.unique read through searchsorted.


def reference_scalar_dist(atoms, weights):
    """(atoms, weights) of ``ScalarDist(atoms, weights)``; validation left out."""
    atoms = np.asarray(atoms, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    order = np.argsort(atoms, kind="stable")
    atoms, weights = atoms[order], weights[order]
    keys = np.round(atoms / _ATOM_MERGE) + 0.0
    boundaries = np.concatenate(([True], np.diff(keys) > 0))
    idx = np.nonzero(boundaries)[0]
    merged_atoms = atoms[idx]
    merged_weights = np.add.reduceat(weights, idx)
    merged_weights = np.maximum(merged_weights, 0.0)
    merged_weights = merged_weights / np.sum(merged_weights)
    return merged_atoms, merged_weights


def _reference_cdf_at(dist, points):
    cum = np.concatenate(([0.0], np.cumsum(dist.weights)))
    return cum[np.searchsorted(dist.atoms, points, side="right")]


def reference_cramer_distance(p, q):
    """``cramer_distance(p, q)`` over np.unique breakpoints."""
    breaks = np.unique(np.concatenate([p.atoms, q.atoms]))
    diff = _reference_cdf_at(p, breaks) - _reference_cdf_at(q, breaks)
    gaps = np.diff(breaks)
    return float(np.sqrt(np.sum(diff[:-1] ** 2 * gaps)))


# Reference bodies of evaluation.ScalarDist and evaluation.cramer_distance
# before the lean passes: a plain sort for equal weights and nonzero atoms,
# merge keys through np.round(...) + 0.0 and np.diff, and breakpoints read
# off one stable merge of both atom arrays.


def reference_sorted_scalar_dist(atoms, weights):
    """(atoms, weights) of ``ScalarDist(atoms, weights)`` with the plain
    sort; validation left out."""
    atoms = np.asarray(atoms, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if np.all(weights == weights[0]) and np.all(atoms != 0.0):
        atoms = np.sort(atoms)
    else:
        order = np.argsort(atoms, kind="stable")
        atoms, weights = atoms[order], weights[order]
    keys = np.round(atoms / _ATOM_MERGE) + 0.0
    boundaries = np.concatenate(([True], np.diff(keys) > 0))
    idx = np.nonzero(boundaries)[0]
    merged_atoms = atoms[idx]
    merged_weights = np.add.reduceat(weights, idx)
    merged_weights = np.maximum(merged_weights, 0.0)
    merged_weights = merged_weights / np.sum(merged_weights)
    return merged_atoms, merged_weights


def reference_merged_cramer_distance(p, q):
    """``cramer_distance(p, q)`` read off one stable merge: at the last
    copy of each value, each side's running count is its searchsorted
    "right" count."""
    both = np.concatenate([p.atoms, q.atoms])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    last = np.append(merged[1:] != merged[:-1], True)
    count_p = np.cumsum(order < p.n_atoms)[last]
    gaps = np.diff(merged[last])
    count_q = np.flatnonzero(last) + 1 - count_p
    diff = np.concatenate(([0.0], p.cdf()))[count_p] - np.concatenate(([0.0], q.cdf()))[count_q]
    return float(np.sqrt(np.sum(diff[:-1] ** 2 * gaps)))


# Reference bodies of kernels.signed_energy_sum and kernels.merge_close_atoms
# before the shared block fill and the lexsort merge: every entry computed
# directly, one coordinate at a time, and buckets found by np.unique over rows.


def _reference_rho(a, b, alpha):
    dist = None
    for col_a, col_b in zip(a.T, b.T):
        dk = col_a[:, None] - col_b[None, :]
        dk *= dk
        if dist is None:
            dist = dk
        else:
            dist += dk
    np.sqrt(dist, out=dist)
    if alpha != 1.0:
        dist **= alpha
    return dist


def reference_signed_energy_sum(atoms, weights, alpha):
    """``signed_energy_sum`` with every entry computed directly, summed over
    the upper triangle in row blocks of the current ``kernels._BLOCK_ENTRIES``:
    per block, the diagonal block's product, then twice the product with the
    columns past it, both read from one (rows, columns from the block on)
    array as the kernel reads them."""
    from mmdrl import kernels

    n, d = atoms.shape
    if n == 1:
        return 0.0
    if d == 1 and alpha == 1.0:
        order = np.argsort(atoms[:, 0], kind="stable")
        z = atoms[order, 0]
        w = weights[order]
        prefix_w = np.concatenate(([0.0], np.cumsum(w)[:-1]))
        prefix_wz = np.concatenate(([0.0], np.cumsum(w * z)[:-1]))
        return float(2.0 * np.sum(w * (z * prefix_w - prefix_wz)))
    block = max(1, kernels._BLOCK_ENTRIES // n)
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        w = weights[start:stop]
        dist = _reference_rho(atoms[start:stop], atoms[start:], alpha)
        total += float(w @ dist[:, : stop - start] @ w)
        if stop < n:
            total += 2.0 * float(w @ dist[:, stop - start :] @ weights[stop:])
    return total


def reference_signed_cross_sum(a, wa, b, wb, alpha):
    """``signed_cross_sum`` with every entry computed directly, scalar atoms
    included, in row blocks of the current ``kernels._BLOCK_ENTRIES``."""
    from mmdrl import kernels

    block = max(1, kernels._BLOCK_ENTRIES // b.shape[0])
    total = 0.0
    for start in range(0, a.shape[0], block):
        stop = min(start + block, a.shape[0])
        total += float(wa[start:stop] @ _reference_rho(a[start:stop], b, alpha) @ wb)
    return total


def reference_merge_close_atoms(atoms, weights, tol=MERGE_TOL):
    """``merge_close_atoms`` through ``np.unique(axis=0)``."""
    keys = np.round(atoms / tol) + 0.0
    _, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    merged_w = np.zeros(first.shape[0])
    np.add.at(merged_w, inverse.ravel(), weights)
    return atoms[first], merged_w


# Reference body of td.ewp_td_run before visits were drawn in blocks: one
# scalar rng.integers and one scalar rng.random per step.


def reference_ewp_td_run(mdp, m, spec, schedule, steps, rng, report_interval=1000):
    """``ewp_td_run`` (no reference, no init) with scalar draws; returns
    (particles, report steps, mean step sizes)."""
    from mmdrl.dp import ewp_init
    from mmdrl.td import ewp_mmd_sq_gradient

    particles = np.stack([meas.atoms for meas in ewp_init(mdp, m)], axis=0)
    visits = np.zeros(mdp.n_states, dtype=np.int64)
    report_steps, mean_step_size, alphas = [], [], []
    for t in range(1, steps + 1):
        x = int(rng.integers(mdp.n_states))
        y = mdp._successors.one(x, rng.random())
        visits[x] += 1
        alpha = schedule(int(visits[x]))
        alphas.append(alpha)
        theta = particles[x]
        targets = mdp.cumulants[x][None, :] + mdp.gamma * particles[y]
        grad = ewp_mmd_sq_gradient(theta, targets, spec.alpha)
        particles[x] = theta - alpha * grad
        if t % report_interval == 0 or t == steps:
            report_steps.append(t)
            mean_step_size.append(float(np.mean(alphas)))
            alphas = []
    return particles, report_steps, mean_step_size


# Reference bodies of mdp.rollout_returns and experiments.zeroshot_seed
# before the zero-shot phase streamed one state at a time: each step scaled
# the gathered rows, and every state's rollouts were drawn before scoring
# the reward draws one after another.


def reference_rollout_returns(mdp, state, horizon, n, rng):
    """``rollout_returns`` scaling the gathered (n, d) rows at each step."""
    successors = mdp._successors
    states = np.full(n, state, dtype=np.int64)
    total = np.zeros((n, mdp.dim))
    discount = 1.0
    for _ in range(horizon):
        total += discount * mdp.cumulants.take(states, axis=0)
        discount *= mdp.gamma
        states = successors.many(states, rng.random(n))
    return total


def reference_zeroshot_seed(config, seed, estimate=None):
    """Rows of ``zeroshot_seed`` with every state's rollouts held at once
    and the reward vectors drawn and scored one at a time."""
    from mmdrl import experiments as ex
    from mmdrl.evaluation import ScalarDist, cramer_distance, zeroshot_scalar
    from mmdrl.kernels import KernelSpec
    from mmdrl.mdp import horizon_for_tail, rng_stream
    from mmdrl.measures import ReturnDistFn

    mdp = ex.build_mdp(config["mdp"], seed)
    spec = KernelSpec(config["kernel"]["alpha"])
    zs = config["zeroshot"]
    if estimate is None:
        if zs["estimate"]["kind"] == "file":
            estimate = ReturnDistFn.load(zs["estimate"]["path"].format(seed=seed))
        else:
            estimate = ex.run_seed(config, seed).estimate
    probability_estimate = ex._as_probability_fn(estimate, spec)
    reward_rng = rng_stream(seed, ex._STREAM_REWARDS)
    oracle_rng = rng_stream(seed, ex._STREAM_ORACLE)
    horizon = horizon_for_tail(mdp, zs["tail_tol"])
    oracle_samples = [
        reference_rollout_returns(mdp, x, horizon, zs["oracle_samples"], oracle_rng)
        for x in range(mdp.n_states)
    ]
    rows = []
    for draw in range(zs["reward_draws"]):
        w = ex._sample_reward_vector(reward_rng, mdp.dim, zs["nonnegative_orthant"])
        errors = []
        for x in range(mdp.n_states):
            predicted = zeroshot_scalar(probability_estimate[x], w)
            truth_atoms = oracle_samples[x] @ w
            n = truth_atoms.shape[0]
            truth = ScalarDist(truth_atoms, np.full(n, 1.0 / n))
            errors.append(cramer_distance(predicted, truth))
        rows.append(
            [str(seed), str(draw)]
            + [ex._fmt(v) for v in w]
            + [ex._fmt(float(np.mean(errors)))]
        )
    return rows


# Particle-DP diagnostics that ewp_random_solve no longer computes, and its
# distance series as the plain loop over every state's mmd.


def reference_ewp_sweeps(mdp, config, spec, rng):
    """Replay ``ewp_random_solve(mdp, config, spec, rng=rng)``'s sweeps.

    Returns (distances, backup gaps, final iterate): per sweep
    ``max(mmd(new[x], old[x], spec) for x in states)`` and the sup-MMD
    between the sampled update and the exact backup of its input (the
    realised per-sweep approximation error)."""
    from mmdrl import ewp_init, ewp_random_step, exact_bellman, mmd

    eta = ewp_init(mdp, config.m)
    distances, gaps = [], []
    for _ in range(config.resolved_iterations(mdp.gamma, spec.alpha)):
        new_eta = ewp_random_step(eta, mdp, config.m, rng)
        distances.append(max(mmd(new_eta[x], eta[x], spec) for x in range(mdp.n_states)))
        exact = exact_bellman(eta, mdp)
        gaps.append(max(mmd(new_eta[x], exact[x], spec) for x in range(mdp.n_states)))
        eta = new_eta
    return distances, gaps, eta


def oracle_distance(report, oracle, spec):
    """Worst-state MMD between a DP report's final iterate and an oracle."""
    from mmdrl import mmd

    return max(mmd(report.final[x], oracle[x], spec) for x in range(oracle.n_states))


# The fixed point of the signed categorical backup, independent of the
# kernels and projections modules. The signed projection of a mass-1 target
# (atoms a, weights v) onto support xi minimises the MMD^2 objective
# -1/2 p^T R p + p^T R_c v over sum p = 1, with R = rho(xi_i, xi_j) and
# R_c = rho(xi_i, a_l) from np.linalg.norm. The bordered system
# [[-R, 1], [1^T, 0]] [p; mu] = [-R_c v; 1] makes p affine in v.
# State x's backup target is the P(x, y)-mixture of the atoms
# r(x) + gamma xi(y) weighted by w_y, so the backup is w -> A w + b, and its
# fixed point solves (I - A) w = b.


def signed_dp_affine_map(mdp, support, alpha):
    """(A, b, offsets) of the signed categorical backup w -> A w + b on the
    stacked per-state weights, state x's at offsets[x]:offsets[x + 1]."""
    sizes = [support[x].shape[0] for x in range(mdp.n_states)]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    a = np.zeros((offsets[-1], offsets[-1]))
    b = np.zeros(offsets[-1])
    for x in range(mdp.n_states):
        n = sizes[x]
        bordered = np.ones((n + 1, n + 1))
        bordered[:n, :n] = -semimetric_matrix(support[x], support[x], alpha)
        bordered[n, n] = 0.0
        rhs = np.zeros((n + 1, n + 1))
        rhs[:n, :n] = np.eye(n)
        rhs[n, n] = 1.0
        solved = np.linalg.solve(bordered, rhs)
        gain, b[offsets[x]:offsets[x + 1]] = solved[:n, :n], solved[:n, n]
        for y in np.flatnonzero(mdp.transition[x]):
            shifted = mdp.cumulants[x] + mdp.gamma * support[y]
            cross = semimetric_matrix(support[x], shifted, alpha)
            block = -mdp.transition[x, y] * gain @ cross
            a[offsets[x]:offsets[x + 1], offsets[y]:offsets[y + 1]] = block
    return a, b, offsets


def signed_dp_fixed_point(mdp, support, alpha):
    """Per-state weights of the signed categorical DP fixed point."""
    a, b, offsets = signed_dp_affine_map(mdp, support, alpha)
    w = np.linalg.solve(np.eye(offsets[-1]) - a, b)
    return [w[offsets[x]:offsets[x + 1]] for x in range(mdp.n_states)]
