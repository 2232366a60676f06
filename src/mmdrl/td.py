"""Temporal-difference engines over categorical and particle representations.

Categorical TD keeps one mass-1 signed weight vector per state on a fixed
support, and blends the visited state's weights toward the signed MMD
projection of the sampled one-step backup. Particle TD instead moves the
visited state's equally weighted particles down the gradient of the
squared MMD to a bootstrapped target particle set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .dp import CategoricalEngine, _ewp_particles, ewp_init
from .errors import ConsistencyError, InvalidInputError, checked_array
from .evaluation import sup_mmd
from .kernels import KernelSpec, signed_energy_sum
from .measures import (
    DiscreteMeasure,
    ReturnDistFn,
    SupportMap,
    categorical,
    empirical,
    weights_on_support,
)
from .mdp import TabularMDP, _visit_blocks, sample_visits


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
        if not 0.0 < self.scale < math.inf:
            raise InvalidInputError(f"schedule scale must lie in (0, inf), got {self.scale}")

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


def init_td_state(mdp: TabularMDP, support: SupportMap, spec: KernelSpec) -> TdState:
    """Probability-weight initialization: the simplex engine's start, the
    per-state point mass at r/(1-gamma) projected onto the support."""
    estimate = categorical(support, CategoricalEngine(mdp, support, spec).init_weights())
    return TdState(estimate, np.zeros(mdp.n_states, dtype=np.int64))


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

    A step from x to y at step size alpha is two BLAS calls on [w, 1]:
    A_xy = [[M, b], [0, 1]] maps [w_y, 1] to the projected backup
    [M w_y + b, 1], and (1 - alpha, alpha) blends that with [w_x, 1].
    Mass needs no guard: the projection onto mass-1 signed measures has
    1^T M = 0 and 1^T b = 1, so the backup has mass 1 for any w_y, and the
    blend maps a mass error e of w_x to (1 - alpha) e. An ``init`` off
    mass 1 is not renormalised; its error decays as the product of
    (1 - alpha_k) over each state's visits. Weights that overflow, as
    steps well above 2 can make them, raise ``ConsistencyError`` at the
    next report step.
    """
    if state_sampler not in ("uniform", "trajectory"):
        raise InvalidInputError(f"unknown state sampler {state_sampler!r}")
    _check_run(mdp, steps, report_interval, reference, init)
    state = init if init is not None else init_td_state(mdp, support, spec)
    visits = state.visit_counts.tolist()
    engine = CategoricalEngine(mdp, support, spec, "signed")
    projectors = engine.projectors
    sizes = support.sizes()
    # Two (2, n + 1) slots per state, each with its rows: row 0 is [w, 1],
    # row 1 the backup blended into it. A step blends the current slot
    # into the spare one, which then becomes current.
    pairs = [np.array([[np.append(weights_on_support(m, xi), 1.0)] * 2] * 2)
             for m, xi in zip(state.estimate, support.atoms)]
    current, spare = ([(slot, slot[0], slot[1]) for slot in slots] for slots in zip(*pairs))
    maps = {}  # A_xy, one per (x, projectors[y]), built at its first visit
    table = [[None] * mdp.n_states for _ in range(mdp.n_states)]  # maps by (x, y)
    coef = np.empty(2)  # (1 - alpha, alpha)
    scale, power = schedule.scale, -schedule.exponent

    try:
        ref_weights = reference and list(map(weights_on_support, reference, support.atoms))
    except InvalidInputError:
        ref_weights = None

    def _weights() -> list:
        return [row[:-1] for _, row, _ in current]

    def _estimate() -> ReturnDistFn:
        return ReturnDistFn(tuple(map(DiscreteMeasure, support.atoms, _weights())))

    def _distance_to_reference() -> float:
        if reference is None:
            return math.nan
        if ref_weights is not None:
            return engine.distance(_weights(), ref_weights)
        return sup_mmd(_estimate(), reference, spec)

    report = TdReport()
    alphas_since_report = []
    ticks = count(1)
    next_report = min(report_interval, steps)
    for xs, ys in _visit_blocks(mdp, steps, rng, state_sampler):
        for x, y, t in zip(xs, ys, ticks):
            k = visits[x] = visits[x] + 1
            alpha = scale * k ** power  # StepSchedule.__call__, inline
            alphas_since_report.append(alpha)
            a_xy = table[x][y]
            if a_xy is None:
                key = x, projectors[y]
                if key not in maps:
                    m, b = projectors[x].affine_map(mdp.cumulants[x] + mdp.gamma * support[y])
                    maps[key] = np.block([[m, b[:, None]], [np.zeros(sizes[y]), 1.0]])
                a_xy = table[x][y] = maps[key]
            slot, _, backup = current[x]
            a_xy.dot(current[y][1], out=backup)
            current[x], spare[x] = spare[x], current[x]
            coef[0], coef[1] = 1.0 - alpha, alpha
            coef.dot(slot, out=current[x][1])
            if t == next_report:
                if not all(np.isfinite(w).all() for w in _weights()):
                    raise ConsistencyError(f"categorical TD weights overflowed by step {t} "
                                           f"at td.schedule.scale = {schedule.scale}")
                report.steps.append(t)
                report.sup_mmd.append(_distance_to_reference())
                report.mean_step_size.append(float(np.mean(alphas_since_report)))
                alphas_since_report.clear()
                next_report = min(t + report_interval, steps)
    return TdState(_estimate(), np.array(visits, dtype=np.int64), state.step + steps), report


def _check_run(mdp: TabularMDP, steps: int, report_interval: int, reference, init) -> None:
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    if steps > 0 and report_interval < 1:
        raise InvalidInputError(f"report_interval must be >= 1, got {report_interval}")
    if reference is not None:
        reference.check_fits(mdp, "reference")
    if init is not None:
        init.estimate.check_fits(mdp, "init")
        if np.any(checked_array(init.visit_counts, (mdp.n_states,), "init visit counts") < 0):
            raise InvalidInputError("init visit counts must be >= 0")


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
    init: TdState | None = None,
):
    """Run particle TD with per-state visit-count step sizes.

    Returns the final state and a report, as ``categorical_td_run`` does,
    and continues from ``init`` as that does: its m equally weighted
    particles per state and its visit counts. A ``reference`` or ``init``
    that does not fit the MDP and m raises ``InvalidInputError`` before
    any step.
    """
    _check_run(mdp, steps, report_interval, reference, init)
    state = init if init is not None else TdState(
        ewp_init(mdp, m), np.zeros(mdp.n_states, dtype=np.int64)
    )
    particles = _ewp_particles(state.estimate, m)
    visits = state.visit_counts.tolist()

    def _estimate() -> ReturnDistFn:
        return ReturnDistFn(tuple(empirical(p) for p in particles))

    def _distance_to_reference() -> float:
        if reference is None:
            return math.nan
        return sup_mmd(_estimate(), reference, spec)

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
    return TdState(_estimate(), np.array(visits, dtype=np.int64), state.step + steps), report
