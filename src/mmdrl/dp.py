"""Dynamic-programming engines for return-distribution functions.

Three flavours:

* ``exact_bellman``: the unprojected distributional backup (mixtures of
  pushforwards). Supports grow multiplicatively per sweep, so an atom
  budget guards against blowup.
* projected categorical DP: exact backup followed by a per-state MMD
  projection onto a fixed support (probability or mass-1 signed weights);
  contractive, converges geometrically to a unique fixed point.
* randomized particle DP: the backup is replaced by a per-state Monte
  Carlo resampling of m equally weighted particles, accurate with high
  probability for large m.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, SupportBlowupError, checked_array
from .kernels import (
    MERGE_TOL,
    NEGATIVE_SQ_TOL,
    KernelSpec,
    cross_kernel,
    merge_close_atoms,
    mmd,
    signed_cross_sum,
    signed_energy_sum,
)
from .measures import (
    DiscreteMeasure,
    ReturnDistFn,
    SupportMap,
    categorical,
    mixture,
    pushforward,
)
from .mdp import TabularMDP
from .projections import SignedProjector, SimplexProjector, project

PROJECTIONS = ("simplex", "signed")


@dataclass
class DpReport:
    """Iteration trace of a DP solve."""

    distances: list
    iterations: int
    wall_time_s: float
    final: ReturnDistFn
    converged: bool

    def contraction_ratios(self) -> list:
        out = []
        for prev, cur in zip(self.distances, self.distances[1:]):
            out.append(cur / prev if prev > 0 else 0.0)
        return out


@dataclass(frozen=True)
class EwpConfig:
    """Particle-DP configuration; ``iterations=None`` uses the default

    K = ceil(log m / log gamma^-alpha), the horizon at which the sampling
    noise and the residual contraction error are balanced.
    """

    m: int
    iterations: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInputError("need at least one particle per state")
        if self.iterations is not None and self.iterations < 0:
            raise InvalidInputError("iteration count must be >= 0")

    def resolved_iterations(self, gamma: float, alpha: float) -> int:
        if self.iterations is not None:
            return self.iterations
        if self.m == 1 or gamma == 0.0:
            return 0
        return int(math.ceil(math.log(self.m) / math.log(gamma**-alpha)))


def point_init(mdp: TabularMDP) -> ReturnDistFn:
    """Point-mass initialization at the per-state mean return proxy r/(1-gamma)."""
    measures = [
        DiscreteMeasure.point(mdp.cumulants[x] / (1.0 - mdp.gamma))
        for x in range(mdp.n_states)
    ]
    return ReturnDistFn(tuple(measures))


def ewp_init(mdp: TabularMDP, m: int) -> ReturnDistFn:
    """m identical particles at r/(1-gamma) per state."""
    measures = []
    for x in range(mdp.n_states):
        atom = mdp.cumulants[x] / (1.0 - mdp.gamma)
        measures.append(DiscreteMeasure(np.tile(atom, (m, 1)), np.full(m, 1.0 / m)))
    return ReturnDistFn(tuple(measures))


def exact_bellman(
    eta: ReturnDistFn, mdp: TabularMDP, *, max_atoms: int | None = None
) -> ReturnDistFn:
    """One unprojected distributional backup.

    Per state: the successor-probability mixture of the state's
    return distributions pushed through z -> r(x) + gamma z. Refuses with
    ``SupportBlowupError`` when any state would exceed ``max_atoms``.
    """
    eta.check_fits(mdp, "eta")
    out = []
    for x in range(mdp.n_states):
        row = mdp.transition[x]
        successors = np.nonzero(row)[0]
        if max_atoms is not None:
            incoming = int(sum(eta[int(y)].n_atoms for y in successors))
            if incoming > max_atoms:
                raise SupportBlowupError(
                    f"backup at state {x} would produce {incoming} atoms "
                    f"(budget {max_atoms}); supports grow exponentially under "
                    f"exact iteration"
                )
        parts = [
            (float(row[y]), pushforward(eta[int(y)], mdp.cumulants[x], mdp.gamma))
            for y in successors
        ]
        out.append(mixture(parts))
    return ReturnDistFn(tuple(out))


class CategoricalEngine:
    """Projected categorical backups with cached per-state solver data.

    The backup atom sets r(x) + gamma xi(x') are fixed by the MDP and
    support, so each sweep only reassembles the QP linear terms from the
    current weights and re-solves (warm-started for the simplex case).
    States with equal atoms share a projector, and the engine keys by it:
    one cross-kernel block per state and successor support, one
    ``solve`` per support.
    """

    def __init__(
        self,
        mdp: TabularMDP,
        support: SupportMap,
        spec: KernelSpec,
        projection: str = "simplex",
    ):
        if projection not in PROJECTIONS:
            raise InvalidInputError(f"unknown projection {projection!r}")
        if support.n_states != mdp.n_states:
            raise InvalidInputError(
                f"support map covers {support.n_states} states, MDP has {mdp.n_states}"
            )
        if support.dim != mdp.dim:
            raise InvalidInputError(
                f"support dimension {support.dim} does not match MDP dimension {mdp.dim}"
            )
        self.mdp = mdp
        self.support = support
        self.spec = spec
        cls = SimplexProjector if projection == "simplex" else SignedProjector
        self.projectors = []  # per state; states with equal atoms share one
        self._groups = {}  # projector -> the states that share it
        for x, atoms in enumerate(support.atoms):
            shared = next((p for p in self._groups if np.array_equal(p.atoms, atoms)), None)
            self.projectors.append(shared if shared is not None else cls(atoms, spec))
            self._groups.setdefault(self.projectors[x], []).append(x)
        self._blocks = {}

    def _block(self, x: int, y: int) -> np.ndarray:
        """Cross-kernel block K(xi(x), r(x) + gamma xi(y)), built at first
        use once per (x, projector of y)."""
        key = (x, self.projectors[y])
        if key not in self._blocks:
            shifted = self.mdp.cumulants[x] + self.mdp.gamma * self.support[y]
            self._blocks[key] = cross_kernel(self.support[x], shifted, self.spec)
        return self._blocks[key]

    def linear_terms(self, weights: list) -> list:
        """QP linear term per state for the backup of the given weights."""
        out = []
        for x in range(self.mdp.n_states):
            row = self.mdp.transition[x]
            q = np.zeros(self.support[x].shape[0])
            for y in np.nonzero(row)[0]:
                q += row[y] * (self._block(x, int(y)) @ weights[int(y)])
            out.append(q)
        return out

    def step_weights(self, weights: list) -> list:
        """One projected backup: one ``solve`` per distinct support, over
        the states that share it, started from their current weights."""
        qs = self.linear_terms(weights)
        out = {}
        for proj, states in self._groups.items():
            starts = np.stack([weights[x] for x in states])
            rows = proj.solve(np.stack([qs[x] for x in states]), starts)
            out.update(zip(states, rows))
        return [out[x] for x in range(self.mdp.n_states)]

    def distance(self, w1: list, w2: list) -> float:
        """sup-MMD between two weight assignments on the engine's support:
        the largest sqrt(delta^T K delta) over states, delta = w1 - w2."""
        worst = 0.0
        for projector, a, b in zip(self.projectors, w1, w2):
            delta = a - b
            val = float(delta @ projector.gram @ delta)
            worst = max(worst, math.sqrt(max(val, 0.0)))
        return worst

    def init_weights(self) -> list:
        init = point_init(self.mdp)
        return [project(p, target) for p, target in zip(self.projectors, init)]

    def to_return_dist(self, weights: list) -> ReturnDistFn:
        return categorical(self.support, weights)


def categorical_dp_solve(
    mdp: TabularMDP,
    support: SupportMap,
    spec: KernelSpec,
    tol: float = 1e-8,
    max_iter: int = 400,
    projection: str = "simplex",
    init_weights: list | None = None,
) -> DpReport:
    """Iterate the projected backup until successive iterates are ``tol``-close.

    The report's distance series is the successive-iterate sup-MMD, whose
    ratios empirically form the contraction-rate series. ``init_weights``
    replaces the point-mass start: one finite vector per state's support.
    """
    if not tol > 0:
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
    start_time = time.perf_counter()
    engine = CategoricalEngine(mdp, support, spec, projection)
    if init_weights is None:
        weights = engine.init_weights()
    elif len(init_weights) != mdp.n_states:
        raise InvalidInputError(
            f"init_weights holds {len(init_weights)} vectors, expected {mdp.n_states}"
        )
    else:
        weights = [
            checked_array(w, (support[x].shape[0],), f"init_weights[{x}]")
            for x, w in enumerate(init_weights)
        ]
    distances = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_weights = engine.step_weights(weights)
        dist = engine.distance(new_weights, weights)
        distances.append(dist)
        weights = new_weights
        if dist <= tol:
            converged = True
            break
    wall = time.perf_counter() - start_time
    return DpReport(
        distances=distances,
        iterations=iterations,
        wall_time_s=wall,
        final=engine.to_return_dist(weights),
        converged=converged,
    )


def _ewp_particles(eta: ReturnDistFn, m: int) -> np.ndarray:
    parts = []
    for x, measure in enumerate(eta):
        if measure.n_atoms != m:
            raise InvalidInputError(
                f"state {x} carries {measure.n_atoms} particles, expected {m}"
            )
        if np.max(np.abs(measure.weights - 1.0 / m)) > 1e-9:
            raise InvalidInputError(f"state {x} particles are not equally weighted")
        parts.append(measure.atoms)
    return np.stack(parts, axis=0)


def ewp_random_step(
    eta: ReturnDistFn, mdp: TabularMDP, m: int, rng: np.random.Generator
) -> ReturnDistFn:
    """One randomized particle backup.

    Per state: m successor states are drawn iid from the transition row,
    one particle is drawn uniformly (with replacement) from each sampled
    successor's slots, and the results are shifted by r(x) and scaled by
    gamma. States are processed in index order, so a fixed generator
    state yields a reproducible sweep.
    """
    particles = _ewp_particles(eta, m)
    out = []
    weights = np.full(m, 1.0 / m)
    for x in range(mdp.n_states):
        successors = mdp._successors.many(x, rng.random(m))
        slots = rng.integers(0, m, size=m)
        z = particles[successors, slots, :]
        out.append(DiscreteMeasure(mdp.cumulants[x] + mdp.gamma * z, weights))
    return ReturnDistFn(tuple(out))


# Unit round-off of float64.
_UNIT = np.finfo(np.float64).eps / 2


class _Merged(NamedTuple):
    """A measure's atoms and weights merged as ``mmd`` merges them, their
    self-energy sum sum_ij w_i w_j rho(a_i, a_j), and the per-coordinate
    lowest and highest atom."""

    atoms: np.ndarray
    weights: np.ndarray
    energy: float
    low: list
    high: list


def _merge(measure: DiscreteMeasure, alpha: float) -> _Merged:
    atoms, weights = merge_close_atoms(measure.atoms, measure.weights)
    return _Merged(
        atoms,
        weights,
        signed_energy_sum(atoms, weights, alpha),
        np.minimum.reduce(atoms).tolist(),
        np.maximum.reduce(atoms).tolist(),
    )


def _screen(new: _Merged, old: _Merged, m: int, alpha: float) -> tuple:
    """Screened squared MMD v = C - S_new / 2 - S_old / 2 of two merged
    particle sets (C their cross sum, m the count of old particles), and a
    bound delta with |v - J| <= delta, where J is what ``mmd_squared``
    computes before it clamps: -1/2 times the energy sum of the merged
    union, weighted w on new and -w' on old.

    Write u for the unit round-off and g = N u / (1 - N u), the constant of
    a sum of N terms, with N = 3 (n_new + n_old) + 2 m + c + 10 and
    c = ceil(max(alpha, 1) (d + 3)) + 2. The weights are positive and sum
    to 1 up to round-off, as particle weights do; W is a 1-norm of weights.

    * A blockwise entry rho_ij is formed within relative error g_c: one
      rounding per difference, square and coordinate sum, the square root
      and pow's ulp. A cross sum's ``w_r @ dist @ w`` over an (r, n)
      block and the running total add g_{r + n + blocks}. An energy sum
      over n atoms adds, per block of r rows, a diagonal product (sums of
      r and r terms) and a doubled product with the k < n columns past
      the block (sums of r and k terms; the doubling is exact), each with
      one running-total addition: g_{r + n + 2 blocks} <= g_{3 n + 3},
      since r + 2 ceil(n / r) <= 2 n + 3 for 1 <= r <= n. With the entry's
      c and n <= n_new + n_old, N covers both. So a blockwise sum is within
      g sum_ij |w_i w'_j| rho_ij <= g W W' D^alpha of its exact value, D
      being the diagonal of the union's bounding box.
    * On the scalar alpha = 1 routes each prefix sum is off by at most g
      times its 1-norm, which puts a self sum within 2 g M and a cross sum
      within 4 g M, M = sum_ij |w_i w'_j| (|z_i| + |z'_j|) <= 2 W W' max|z|.

    With s = D^alpha, or s = 2 max|z| >= D on the scalar route, C, S_new
    and S_old are within 4 g s, 2 g s and 2 g s, forming v adds at most
    4 u s <= g s, and the union's sum (W = 2) is within 8 g s: 7 g s in v
    and 4 g s in J.

    The union that ``mmd`` merges has the buckets of both sets. A bucket
    holding atoms of both keeps its new atom, and its weight is the new
    weight minus the old raw weights added one at a time: within
    g_{2m} (w_i + w'_j) of w_i - w'_j, 2 g in all, which moves the energy
    sum by at most 2 g D^alpha (2 + 2) = 8 g s, 4 g s in J. The old atom
    moves onto the new one. Keys round(x / tol) agree only where each
    coordinate differs by at most tol + u (|x| + |y|), so it moves by at
    most h = sqrt(d) (tol + 2 u max|x|), and a distance by at most 2 h.
    With L = (2 h)^alpha for alpha <= 1 (Hoelder) and
    alpha D^(alpha - 1) 2 h above (Lipschitz on [0, D]), the moves shift
    the energy sum by at most 2 (old mass 1) (W = 2) L = 4 L, 2 L in J.

    In all |v - J| <= 15 g s + 2 L. The bound returned, 16 g s + 3 L,
    leaves room for rounding delta and the comparisons it enters. delta
    is infinite where a bound could overflow: the union's partial sums
    (up to 4 s) or the keys x / tol.
    """
    low = [min(x, y) for x, y in zip(new.low, old.low)]
    high = [max(x, y) for x, y in zip(new.high, old.high)]
    top = max(map(abs, low + high))
    diameter = math.dist(low, high)
    d = len(low)
    cross = signed_cross_sum(new.atoms, new.weights, old.atoms, old.weights, alpha)
    v = cross - 0.5 * new.energy - 0.5 * old.energy
    c = math.ceil(max(alpha, 1.0) * (d + 3)) + 2
    n = 3 * (len(new.weights) + len(old.weights)) + 2 * m + c + 10
    g = n * _UNIT / (1.0 - n * _UNIT)
    move = 2.0 * math.sqrt(d) * (MERGE_TOL + 2.0 * _UNIT * top)
    try:
        scale = 2.0 * top if d == 1 and alpha == 1.0 else diameter**alpha
        if alpha <= 1.0:
            shift = move**alpha
        else:
            shift = alpha * diameter ** (alpha - 1.0) * move
    except OverflowError:
        return v, math.inf
    if not (math.isfinite(4.0 * scale) and math.isfinite(top / MERGE_TOL)):
        return v, math.inf
    return v, 16.0 * g * scale + 3.0 * shift


def _sup_mmd(new_eta, eta, new_sets, old_sets, spec: KernelSpec) -> float:
    """``max(mmd(new_eta[x], eta[x], spec) for x in states)``, bit for bit,
    with ``mmd`` run only for the states the screen keeps.

    A state is kept when its interval [v - delta, v + delta] reaches the
    highest lower end, or reaches below -NEGATIVE_SQ_TOL, where ``mmd``
    may raise ``ConsistencyError``. Kept states run in state order, so the
    first to raise is the one that raised before. A state is dropped only
    when its J lies below the J of the state with the highest lower end,
    so its MMD is no larger. The maximum is then positive, as v + delta >
    0 for particle sets: v is within 7 g s of an MMD^2 of two measures
    whose masses differ by at most 2 g, which is at least -4 g s (see
    ``_screen``). A positive maximum is one float in any order; a zero
    one, whose sign is that of the first zero, is taken over every state
    in order. A screen that is not finite keeps every state.
    """
    screens = [
        _screen(new, old, eta[x].n_atoms, spec.alpha)
        for x, (new, old) in enumerate(zip(new_sets, old_sets))
    ]
    states = range(len(screens))
    if all(math.isfinite(v) and math.isfinite(delta) for v, delta in screens):
        floor = max(v - delta for v, delta in screens)
        states = [
            x
            for x, (v, delta) in enumerate(screens)
            if v + delta >= floor or v - delta < -NEGATIVE_SQ_TOL
        ]
    return max(mmd(new_eta[x], eta[x], spec) for x in states)


def ewp_random_solve(
    mdp: TabularMDP,
    config: EwpConfig,
    spec: KernelSpec,
    *,
    rng: np.random.Generator,
) -> DpReport:
    """Run the randomized particle DP for its configured iteration count.

    The distance series is the sup-MMD between successive iterates, the
    values of ``max(mmd(new[x], old[x], spec) for x in states)`` bit for
    bit. Each state's merged particle set and self-energy sum are carried
    from one sweep to the next, so a sweep merges and sums each new
    iterate once and forms one cross sum per state. These screen the
    states (``_sup_mmd``), and the exact ``mmd`` runs only for those that
    can attain the maximum: usually one per sweep. Every draw comes from
    ``rng``; ``mmdrl run`` passes ``rng_stream(seed, 2)``.
    """
    start_time = time.perf_counter()
    iterations = config.resolved_iterations(mdp.gamma, spec.alpha)
    eta = ewp_init(mdp, config.m)
    sets = [_merge(measure, spec.alpha) for measure in eta]
    distances = []
    for _ in range(iterations):
        new_eta = ewp_random_step(eta, mdp, config.m, rng)
        new_sets = [_merge(measure, spec.alpha) for measure in new_eta]
        distances.append(_sup_mmd(new_eta, eta, new_sets, sets, spec))
        eta, sets = new_eta, new_sets
    wall = time.perf_counter() - start_time
    return DpReport(
        distances=distances,
        iterations=iterations,
        wall_time_s=wall,
        final=eta,
        converged=True,
    )
