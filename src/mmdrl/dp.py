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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SupportBlowupError
from .kernels import KernelSpec, cross_kernel, mmd
from .measures import (
    DiscreteMeasure,
    ReturnDistFn,
    SupportMap,
    categorical,
    mixture,
    pushforward,
    weights_on_support,
)
from .mdp import TabularMDP
from .projections import (
    SignedProjector,
    SimplexProjector,
    _gram_sup_mmd,
    solve_simplex_qp_batch,
    state_projectors,
)

PROJECTIONS = ("simplex", "signed")


@dataclass
class DpReport:
    """Iteration trace of a DP solve."""

    distances: list
    iterations: int
    wall_time_s: float
    final: ReturnDistFn
    converged: bool
    backup_gaps: list = field(default_factory=list)
    oracle_distance: float | None = None

    def contraction_ratios(self) -> list:
        out = []
        for prev, cur in zip(self.distances, self.distances[1:]):
            out.append(cur / prev if prev > 0 else 0.0)
        return out

    def to_csv(self, path) -> None:
        """Series CSV with columns iteration, sup_mmd."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("iteration,sup_mmd\r\n")
            for i, dist in enumerate(self.distances, start=1):
                fh.write(f"{i},{dist:.17g}\r\n")


@dataclass(frozen=True)
class EwpConfig:
    """Particle-DP configuration; ``iterations=None`` uses the default

    K = ceil(log m / log gamma^-alpha), the horizon at which the sampling
    noise and the residual contraction error are balanced.
    """

    m: int
    iterations: int | None = None
    seed: int = 0

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
    if eta.n_states != mdp.n_states:
        raise InvalidInputError(
            f"{eta.n_states} state distributions for {mdp.n_states} states"
        )
    if eta.dim != mdp.dim:
        raise InvalidInputError(
            f"return dimension {eta.dim} does not match cumulant dimension {mdp.dim}"
        )
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
        self.projection = projection
        cls = SimplexProjector if projection == "simplex" else SignedProjector
        self.projectors = state_projectors(cls, support, spec)
        self.shared_support = all(p is self.projectors[0] for p in self.projectors)
        # Cross-kernel blocks: state x sees successor x' atoms shifted by r(x).
        self._blocks = {}
        for x in range(mdp.n_states):
            row = mdp.transition[x]
            for y in np.nonzero(row)[0]:
                shifted = mdp.cumulants[x] + mdp.gamma * support[int(y)]
                self._blocks[(x, int(y))] = cross_kernel(
                    support[x], shifted, spec
                )

    def linear_terms(self, weights: list) -> list:
        """QP linear term per state for the backup of the given weights."""
        out = []
        for x in range(self.mdp.n_states):
            row = self.mdp.transition[x]
            q = np.zeros(self.support[x].shape[0])
            for y in np.nonzero(row)[0]:
                q += row[y] * (self._blocks[(x, int(y))] @ weights[int(y)])
            out.append(q)
        return out

    def step_weights(self, weights: list, warm: bool = True) -> list:
        qs = self.linear_terms(weights)
        if self.shared_support:
            q_rows = np.stack(qs, axis=0)
            if self.projection == "simplex":
                starts = np.stack(weights, axis=0) if warm else None
                rows, _, _ = solve_simplex_qp_batch(
                    self.projectors[0].gram, q_rows, starts
                )
            else:
                proj = self.projectors[0]
                rows = q_rows @ proj._s.T + proj.offset[None, :]
            return [rows[x] for x in range(self.mdp.n_states)]
        return [
            self.projectors[x].solve_linear(qs[x], weights[x] if warm else None).weights
            for x in range(self.mdp.n_states)
        ]

    def distance(self, w1: list, w2: list) -> float:
        """sup-MMD between two weight assignments on the engine's support."""
        return _gram_sup_mmd(self.projectors, w1, w2)

    def init_weights(self) -> list:
        init = point_init(self.mdp)
        return [
            self.projectors[x].project(init[x].atoms, init[x].weights).weights
            for x in range(self.mdp.n_states)
        ]

    def to_return_dist(self, weights: list) -> ReturnDistFn:
        return categorical(self.support, weights)


def categorical_dp_step(
    eta: ReturnDistFn,
    mdp: TabularMDP,
    support: SupportMap,
    spec: KernelSpec,
    projection: str = "simplex",
) -> ReturnDistFn:
    """One projected categorical backup of ``eta`` (which must live on the support)."""
    engine = CategoricalEngine(mdp, support, spec, projection)
    weights = [weights_on_support(eta[x], support[x]) for x in range(mdp.n_states)]
    return engine.to_return_dist(engine.step_weights(weights, warm=False))


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
    ratios empirically form the contraction-rate series.
    """
    if not tol > 0:
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
    start_time = time.perf_counter()
    engine = CategoricalEngine(mdp, support, spec, projection)
    weights = init_weights if init_weights is not None else engine.init_weights()
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


def ewp_random_solve(
    mdp: TabularMDP,
    config: EwpConfig,
    spec: KernelSpec,
    *,
    rng: np.random.Generator | None = None,
    oracle: ReturnDistFn | None = None,
    track_backup_gap: bool = False,
) -> DpReport:
    """Run the randomized particle DP for its configured iteration count.

    When ``track_backup_gap`` is set, each iteration also records the
    sup-MMD between the sampled update and the exact backup of its input,
    i.e. the realized per-sweep approximation error.
    """
    from .mdp import rng_stream

    start_time = time.perf_counter()
    rng = rng if rng is not None else rng_stream(config.seed)
    iterations = config.resolved_iterations(mdp.gamma, spec.alpha)
    eta = ewp_init(mdp, config.m)
    distances = []
    gaps = []
    for _ in range(iterations):
        new_eta = ewp_random_step(eta, mdp, config.m, rng)
        distances.append(
            max(mmd(new_eta[x], eta[x], spec) for x in range(mdp.n_states))
        )
        if track_backup_gap:
            exact = exact_bellman(eta, mdp)
            gaps.append(
                max(mmd(new_eta[x], exact[x], spec) for x in range(mdp.n_states))
            )
        eta = new_eta
    oracle_distance = None
    if oracle is not None:
        oracle_distance = max(
            mmd(eta[x], oracle[x], spec) for x in range(mdp.n_states)
        )
    wall = time.perf_counter() - start_time
    return DpReport(
        distances=distances,
        iterations=iterations,
        wall_time_s=wall,
        final=eta,
        converged=True,
        backup_gaps=gaps,
        oracle_distance=oracle_distance,
    )
