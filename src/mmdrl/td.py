"""Temporal-difference engines over categorical and particle representations.

The categorical algorithm keeps one mass-1 signed weight vector per state
on a fixed support; each observed transition updates only the visited
state by blending its weights toward the signed MMD projection of the
sampled one-step backup. The particle baseline instead nudges the visited
state's equally weighted particle locations down the gradient of the
squared MMD to a bootstrapped target particle set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InvalidInputError, checked_array
from .kernels import KernelSpec, mmd, signed_energy_sum
from .measures import (
    DiscreteMeasure,
    ReturnDistFn,
    SupportMap,
    weights_on_support,
)
from .mdp import TabularMDP, sample_visits
from .projections import (
    SignedProjector,
    SimplexProjector,
    _gram_sup_mmd,
    state_projectors,
)

# Weight-sum drift beyond which the mass-1 constraint is re-imposed.
MASS_DRIFT_TOL = 1e-10
# Most steps per drift check in categorical_td_run: a 17 KB row buffer at
# n = 66 atoms, where 64 or 128 rows measured 0.15 MB more peak RSS.
_CHECK_BLOCK = 32


@dataclass(frozen=True)
class StepSchedule:
    """Per-visit step sizes alpha(k) = scale * k^(-exponent).

    Exponents in (1/2, 1] give a divergent step-size sum with convergent
    squared sum, as stochastic-approximation convergence requires.
    """

    exponent: float = 0.6
    scale: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.exponent <= 1.0:
            raise InvalidInputError(
                f"schedule exponent must lie in (1/2, 1], got {self.exponent}"
            )
        if self.scale <= 0.0:
            raise InvalidInputError("schedule scale must be positive")

    def __call__(self, visit: int) -> float:
        if visit < 1:
            raise InvalidInputError("visit counts start at 1")
        return self.scale * visit ** (-self.exponent)


@dataclass(frozen=True)
class TdState:
    """Estimate plus the bookkeeping the asynchronous schedule needs."""

    estimate: ReturnDistFn
    visit_counts: np.ndarray
    step: int = 0


@dataclass
class TdReport:
    """Sparse trace of a TD run."""

    steps: list = field(default_factory=list)
    sup_mmd: list = field(default_factory=list)
    mean_step_size: list = field(default_factory=list)
    # Steps whose weight sum drifted beyond MASS_DRIFT_TOL (categorical TD).
    renormalizations: int = 0


def init_td_state(
    mdp: TabularMDP, support: SupportMap, spec: KernelSpec
) -> TdState:
    """Probability-weight initialization: project the per-state point mass
    at r/(1-gamma) onto the support."""
    from .dp import point_init

    init = point_init(mdp)
    projectors = state_projectors(SimplexProjector, support, spec)
    measures = []
    for x in range(mdp.n_states):
        res = projectors[x].project(init[x].atoms, init[x].weights)
        measures.append(DiscreteMeasure(support[x], res.weights))
    return TdState(ReturnDistFn(tuple(measures)), np.zeros(mdp.n_states, dtype=np.int64))


def categorical_td_run(
    mdp: TabularMDP,
    support: SupportMap,
    spec: KernelSpec,
    schedule: StepSchedule,
    steps: int,
    rng: np.random.Generator,
    *,
    state_sampler: str = "uniform",
    reference: ReturnDistFn | None = None,
    report_interval: int = 1000,
    init: TdState | None = None,
):
    """Run asynchronous signed-categorical TD for ``steps`` transitions.

    States are visited uniformly at random by default (``"trajectory"``
    follows the chain instead). Returns the final state and a report with
    sup-MMD to ``reference`` at every report interval; a reference or
    ``init`` of another state count or dimension than the MDP raises
    ``InvalidInputError`` before any step.

    The weight-sum drift is checked once per block of at most
    ``_CHECK_BLOCK`` steps, ending at report steps. After renormalising a
    step, the block's later steps are redone, so every result equals a
    check after each step. ``report.renormalizations`` counts those steps.
    """
    if state_sampler not in ("uniform", "trajectory"):
        raise InvalidInputError(f"unknown state sampler {state_sampler!r}")
    _check_run(mdp, steps, report_interval, reference)
    if init is not None:
        init.estimate.check_fits(mdp, "init")
        checked_array(init.visit_counts, (mdp.n_states,), "init visit counts")
    state = init if init is not None else init_td_state(mdp, support, spec)
    weights = [
        weights_on_support(state.estimate[x], support[x])
        for x in range(mdp.n_states)
    ]
    visits = state.visit_counts.tolist()
    projectors = state_projectors(SignedProjector, support, spec)
    # Per-(state, next-state) affine maps M w + b of the projected backup:
    # its atom set r(x) + gamma xi(x') is fixed, so each map is built once.
    maps = {}

    ref_weights = None
    if reference is not None:
        try:
            ref_weights = [
                weights_on_support(reference[x], support[x])
                for x in range(mdp.n_states)
            ]
        except InvalidInputError:
            pass

    def _distance_to_reference() -> float:
        if reference is None:
            return math.nan
        if ref_weights is not None:
            return _gram_sup_mmd(projectors, weights, ref_weights)
        return max(
            mmd(DiscreteMeasure(support[x], weights[x]), reference[x], spec)
            for x in range(mdp.n_states)
        )

    # Step i of a block writes row i of its state's (_CHECK_BLOCK, n) buffer.
    sizes = [support[x].shape[0] for x in range(mdp.n_states)]
    buffers = {n: np.zeros((_CHECK_BLOCK, n)) for n in sizes}
    rows = [list(buffers[n]) for n in sizes]

    def _blend_rows(keys, alphas, start):
        """Steps ``start`` on: (1 - alpha) w_x + alpha (M w_y + b) into row i."""
        for i, key, alpha in zip(range(start, len(keys)), keys[start:], alphas[start:]):
            x, y = key
            if key not in maps:
                shifted = mdp.cumulants[x] + mdp.gamma * support[y]
                maps[key] = projectors[x].affine_map(shifted)
            m_map, b_map = maps[key]
            # dot and @ reach the same gemv; dot's call costs less.
            projected = m_map.dot(weights[y])
            projected += b_map
            projected *= alpha
            row = rows[x][i]
            np.multiply(weights[x], 1.0 - alpha, out=row)
            row += projected
            weights[x] = row

    def _first_drift(keys, start):
        """First step from ``start`` whose row sum drifts past the tolerance."""
        drifted = [
            start + i
            for n, buf in buffers.items()
            for i, total in enumerate(np.add.reduce(buf[start:len(keys)], axis=1).tolist())
            # A row that a step of another support size used is stale.
            if abs(total - 1.0) > MASS_DRIFT_TOL and sizes[keys[start + i][0]] == n
        ]
        return min(drifted, default=None)

    report = TdReport()
    alphas_since_report = []
    visited = sample_visits(mdp, steps, rng, state_sampler)
    done = 0
    while done < steps:
        # A block ends at the next report step at the latest.
        count = min(_CHECK_BLOCK, report_interval - done % report_interval, steps - done)
        keys = list(islice(visited, count))
        for x, _ in keys:
            visits[x] += 1
            alphas_since_report.append(schedule(visits[x]))
        alphas = alphas_since_report[-count:]
        before = weights[:]
        start = 0
        _blend_rows(keys, alphas, start)
        while (bad := _first_drift(keys, start)) is not None:
            # Renormalise as a per-step check would, then redo the later steps.
            row = rows[keys[bad][0]][bad]
            drift = float(np.add.reduce(row)) - 1.0
            np.divide(row, 1.0 + drift, out=row)
            report.renormalizations += 1
            weights[:] = before
            for i in range(bad + 1):
                weights[keys[i][0]] = rows[keys[i][0]][i]
            start = bad + 1
            _blend_rows(keys, alphas, start)
        # The next block reuses the rows states still hold.
        for x in {key[0] for key in keys}:
            weights[x] = weights[x].copy()
        done += count
        if done % report_interval == 0 or done == steps:
            report.steps.append(done)
            report.sup_mmd.append(_distance_to_reference())
            report.mean_step_size.append(float(np.mean(alphas_since_report)))
            alphas_since_report = []

    estimate = ReturnDistFn(
        tuple(DiscreteMeasure(support[x], weights[x]) for x in range(mdp.n_states))
    )
    return TdState(estimate, np.array(visits, dtype=np.int64), state.step + steps), report


def _check_run(mdp: TabularMDP, steps: int, report_interval: int, reference) -> None:
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    if steps > 0 and report_interval < 1:
        raise InvalidInputError(f"report_interval must be >= 1, got {report_interval}")
    if reference is not None:
        reference.check_fits(mdp, "reference")


def ewp_mmd_sq_objective(theta: np.ndarray, targets: np.ndarray, alpha: float) -> float:
    """Squared MMD between equally weighted particle sets theta and targets."""
    m = theta.shape[0]
    n = targets.shape[0]
    atoms = np.concatenate([theta, targets], axis=0)
    signed = np.concatenate([np.full(m, 1.0 / m), np.full(n, -1.0 / n)])
    return -0.5 * signed_energy_sum(atoms, signed, alpha)


def ewp_mmd_sq_gradient(theta: np.ndarray, targets: np.ndarray, alpha: float) -> np.ndarray:
    """Gradient of the squared MMD with respect to the particle locations.

    The semimetric gradient alpha ||u||^(alpha-2) u is taken to be zero at
    coincident points (a valid subgradient for alpha <= 1, and the
    standard convention here for alpha in (1, 2)).
    """
    m = theta.shape[0]
    n = targets.shape[0]

    def _terms(diff):
        norms = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        factor = np.zeros_like(norms)
        nz = norms > 0.0
        factor[nz] = alpha * norms[nz] ** (alpha - 2.0)
        return np.einsum("ij,ijk->ik", factor, diff)

    cross = _terms(theta[:, None, :] - targets[None, :, :]) / (m * n)
    within = _terms(theta[:, None, :] - theta[None, :, :]) / (m * m)
    return cross - within


def ewp_td_run(
    mdp: TabularMDP,
    m: int,
    spec: KernelSpec,
    schedule: StepSchedule,
    steps: int,
    rng: np.random.Generator,
    *,
    reference: ReturnDistFn | None = None,
    report_interval: int = 1000,
    init: np.ndarray | None = None,
):
    """Run particle TD with per-state visit-count step sizes; ``reference``
    and the finite (S, m, d) ``init`` particles must fit the MDP."""
    _check_run(mdp, steps, report_interval, reference)
    if init is not None:
        particles = checked_array(init, (mdp.n_states, m, mdp.dim), "init").copy()
    else:
        from .dp import ewp_init

        particles = np.stack([meas.atoms for meas in ewp_init(mdp, m)], axis=0)
    visits = [0] * mdp.n_states
    slot_weights = np.full(m, 1.0 / m)

    def _distance_to_reference() -> float:
        if reference is None:
            return math.nan
        return max(
            mmd(DiscreteMeasure(particles[x], slot_weights), reference[x], spec)
            for x in range(mdp.n_states)
        )

    report = TdReport()
    alphas_since_report = []
    for t, (x, y) in enumerate(sample_visits(mdp, steps, rng), 1):
        visits[x] += 1
        alpha = schedule(visits[x])
        alphas_since_report.append(alpha)
        theta = particles[x]
        targets = mdp.cumulants[x][None, :] + mdp.gamma * particles[y]
        grad = ewp_mmd_sq_gradient(theta, targets, spec.alpha)
        particles[x] = theta - alpha * grad
        if t % report_interval == 0 or t == steps:
            report.steps.append(t)
            report.sup_mmd.append(_distance_to_reference())
            report.mean_step_size.append(float(np.mean(alphas_since_report)))
            alphas_since_report = []
    return particles, report
