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
from itertools import islice

import numpy as np

from .dp import CategoricalEngine, _ewp_particles, ewp_init
from .errors import InvalidInputError, checked_array
from .evaluation import sup_mmd
from .kernels import KernelSpec, signed_energy_sum
from .measures import DiscreteMeasure, ReturnDistFn, SupportMap, empirical, weights_on_support
from .mdp import TabularMDP, sample_visits

# Weight-sum drift beyond which the mass-1 constraint is re-imposed.
MASS_DRIFT_TOL = 1e-10
# Most steps per drift check in categorical_td_run (a 34 KB pool at n = 66).
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


def init_td_state(mdp: TabularMDP, support: SupportMap, spec: KernelSpec) -> TdState:
    """Probability-weight initialization: the simplex engine's start, the
    per-state point mass at r/(1-gamma) projected onto the support."""
    engine = CategoricalEngine(mdp, support, spec)
    estimate = engine.to_return_dist(engine.init_weights())
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
    The weight-sum drift is checked once per block of at most
    ``_CHECK_BLOCK`` steps, ending at report steps; a renormalised step's
    later steps are redone, as if checked after each step.
    ``report.renormalizations`` counts those steps.
    """
    if state_sampler not in ("uniform", "trajectory"):
        raise InvalidInputError(f"unknown state sampler {state_sampler!r}")
    _check_run(mdp, steps, report_interval, reference, init)
    state = init if init is not None else init_td_state(mdp, support, spec)
    visits = state.visit_counts.tolist()
    engine = CategoricalEngine(mdp, support, spec, "signed")
    projectors = engine.projectors
    sizes = support.sizes()
    # A state's versions are (2, n + 1) slots: row 0 is [w, 1], row 1 the
    # backup blended into it. A block starts at each state's own slot, and
    # its step i writes slot i of its support size's pool.
    pools = {n: np.empty((_CHECK_BLOCK, 2, n + 1)) for n in sizes}
    step_slots = [_views(pools[n]) for n in sizes]
    first = _views(np.stack([np.append(weights_on_support(m, xi), 1.0)] * 2)
                   for m, xi in zip(state.estimate, support.atoms))
    weights = [head[:-1] for _, head, _ in first]
    maps = {}  # A_xy, built at the first visit to (x, projectors[y])
    coef_rows = list(coefs := np.empty((_CHECK_BLOCK, 2)))

    try:
        ref_weights = reference and list(map(weights_on_support, reference, support.atoms))
    except InvalidInputError:
        ref_weights = None

    def _estimate() -> ReturnDistFn:
        return ReturnDistFn(tuple(map(DiscreteMeasure, support.atoms, weights)))

    def _distance_to_reference() -> float:
        if reference is None:
            return math.nan
        if ref_weights is not None:
            return engine.distance(weights, ref_weights)
        return sup_mmd(_estimate(), reference, spec)

    def _blend(keys, start, current):
        """Steps ``start`` on, from the versions in ``current``."""
        for i in range(start, len(keys)):
            x, y = keys[i]
            key = x, projectors[y]
            if key not in maps:
                m, b = projectors[x].affine_map(mdp.cumulants[x] + mdp.gamma * support[y])
                maps[key] = np.block([[m, b[:, None]], [np.zeros(sizes[y]), 1.0]])
            slot, _, tail = current[x]
            maps[key].dot(current[y][1], out=tail)
            current[x] = step_slots[x][i]
            coef_rows[i].dot(slot, out=current[x][1])

    def _first_drift(keys, start):
        """First step from ``start`` whose weight sum drifts past the tolerance."""
        return min((
            start + i
            for n, pool in pools.items()
            for i, total in enumerate(np.add.reduce(pool[start:len(keys), 0, :-1], axis=1).tolist())
            # A slot that a step of another support size wrote is stale.
            if abs(total - 1.0) > MASS_DRIFT_TOL and sizes[keys[start + i][0]] == n
        ), default=None)

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
            # StepSchedule.__call__'s expression.
            alphas_since_report.append(schedule.scale * visits[x] ** -schedule.exponent)
        coefs[:count] = [(1.0 - a, a) for a in alphas_since_report[-count:]]
        current, start = first[:], 0
        _blend(keys, start, current)
        while (bad := _first_drift(keys, start)) is not None:
            # Renormalise as a per-step check would, then redo the later steps.
            row = step_slots[keys[bad][0]][bad][1][:-1]
            drift = float(np.add.reduce(row)) - 1.0
            np.divide(row, 1.0 + drift, out=row)
            report.renormalizations += 1
            current, start = first[:], bad + 1
            for i in range(start):
                current[keys[i][0]] = step_slots[keys[i][0]][i]
            _blend(keys, start, current)
        for x in {key[0] for key in keys}:
            first[x][1][:] = current[x][1]
        done += count
        if done % report_interval == 0 or done == steps:
            report.steps.append(done)
            report.sup_mmd.append(_distance_to_reference())
            report.mean_step_size.append(float(np.mean(alphas_since_report)))
            alphas_since_report = []

    return TdState(_estimate(), np.array(visits, dtype=np.int64), state.step + steps), report


def _views(slots) -> list:
    """(slot, row 0, row 1) for each (2, n + 1) slot."""
    return [(s, s[0], s[1]) for s in slots]


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
