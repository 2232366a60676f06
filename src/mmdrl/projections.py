"""MMD projections onto a fixed support.

Two feasible sets are supported for the weight vector p over support atoms
xi_1..xi_n, both minimizing the quadratic

    p^T K p - 2 p^T q,    K_ij = -rho(xi_i, xi_j) / 2,
                          q_j  = -sum_l w_l rho(xi_j, a_l) / 2,

which equals MMD^2 to the mass-1 target (atoms a, weights w) up to a
constant on mass-1 weights (see ``kernels``):

* simplex, p >= 0 and sum p = 1 (``SimplexProjector``): exact primal
  active-set solve (Lawson & Hanson style). Each step solves the mass-1
  equality QP on the current free set. The atom with the most negative
  reduced gradient joins the set; a step toward a solution with a negative
  weight stops where the first such weight reaches zero, and that atom
  leaves the set. When the mass-1 solution on all atoms is already
  nonnegative it is returned as is (at d=1, alpha=1 that is the Cramer
  two-hot projection).
* signed, sum p = 1 only (``SignedProjector``): the constraint is
  eliminated and the reduced system, positive definite for distinct
  atoms, inverted once per support, making the projection an affine map
  of the target weights.

Both projectors take linear terms in and give weights out through one
method, ``solve(q_rows, start_rows)``: one QP per row of ``q_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SolverError
from .kernels import KernelSpec, cross_kernel, gram
from .measures import DiscreteMeasure, _check_distinct

# Residual beyond which a finished solve is reported as failed.
KKT_ACCEPT = 1e-8


@dataclass(frozen=True)
class ProjectionResult:
    weights: np.ndarray
    kkt_residual: float
    iterations: int


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ind > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _free_set_solve(k: np.ndarray, q: np.ndarray, free: np.ndarray):
    """Minimiser of p^T K p - 2 p^T q over sum p = 1 with p zero off ``free``.

    Solves the bordered system [[2 K_FF, 1], [1^T, 0]] [p_F; mu] = [2 q_F; 1];
    the gradient 2 (K p - q) then equals -mu on the free set. Returns the
    full-length weights and mu.
    """
    idx = np.flatnonzero(free)
    r = idx.size
    border = np.empty((r + 1, r + 1))
    rhs = np.empty(r + 1)
    np.multiply(k.take(idx, axis=0).take(idx, axis=1), 2.0, out=border[:r, :r])
    border[:r, r] = border[r, :r] = rhs[r] = 1.0
    border[r, r] = 0.0
    np.multiply(q.take(idx), 2.0, out=rhs[:r])
    try:
        sol = np.linalg.solve(border, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("simplex projection hit a singular free-set system") from exc
    p = np.zeros(q.size)
    p[idx] = sol[:r]
    return p, sol[r]


def _active_set(k: np.ndarray, q: np.ndarray, start: np.ndarray | None):
    """Primal active-set solve of the simplex QP; returns (weights, solves).

    A cold start first solves on all atoms and is done if that solution is
    nonnegative; otherwise its clipped, renormalised positive part is the
    feasible starting point. A warm start begins from ``start`` (clipped
    and renormalised) with its positive entries free. Each step solves the
    equality QP on the free set. If that solution has a negative weight,
    the iterate moves toward it only until the first free weight reaches
    zero, and that atom leaves the free set. Otherwise the iterate moves to
    it and the fixed atom with the most negative reduced gradient joins
    the free set; the solve ends when no reduced gradient is negative.
    """
    n = q.size
    p = None
    solves = 0
    if start is not None and start.shape == (n,) and np.isfinite(start).all():
        p = np.maximum(start, 0.0)
        mass = p.sum()
        p = p / mass if mass > 0.0 else None
    if p is None:
        p, _ = _free_set_solve(k, q, np.ones(n, dtype=bool))
        solves = 1
        if (p >= 0.0).all():
            return p, solves
        p = np.maximum(p, 0.0)
        p /= p.sum()
    free = p > 0.0
    # Round-off floor for reduced gradients: below it an atom is not added.
    floor = 1e-14 * (1.0 + float(abs(k).max()) + float(abs(q).max()))
    added = None
    # Free sets at full steps never repeat, so the loop is finite; the cap
    # only stops round-off cycling, which the caller's KKT check reports.
    for _ in range(4 * n + 8):
        x, mu = _free_set_solve(k, q, free)
        solves += 1
        neg = free & (x < 0.0)
        if neg.any():
            if added is not None and x[added] <= 0.0:
                # The added atom's reduced gradient was round-off.
                break
            ratios = p[neg] / (p[neg] - x[neg])
            step = float(ratios.min())
            p = np.maximum(p + step * (x - p), 0.0)
            blocking = np.flatnonzero(neg)[ratios <= step]
            p[blocking] = 0.0
            free[blocking] = False
            added = None
            continue
        p = x
        # 2 (K p - q) + mu, rounded as written, in one buffer.
        reduced = k @ p
        reduced -= q
        reduced *= 2.0
        reduced += mu
        reduced[free] = 0.0
        added = int(reduced.argmin())
        if reduced[added] >= -floor:
            break
        free[added] = True
    return p, solves


def _kkt_residual(k: np.ndarray, q: np.ndarray, p: np.ndarray) -> float:
    """Sup-norm of the projected-gradient fixed-point map p - P(p - grad f(p))."""
    return float(np.max(np.abs(p - project_to_simplex(p - 2.0 * (k @ p - q)))))


def _accept(residual: float, what: str) -> None:
    if residual > KKT_ACCEPT:
        raise SolverError(
            f"{what} ended at KKT residual {residual:.3e} (accepts {KKT_ACCEPT:.0e})",
            residual=residual,
        )


def solve_simplex_qp(
    gram_matrix: np.ndarray, linear: np.ndarray, start: np.ndarray | None = None
) -> ProjectionResult:
    """Minimize p^T K p - 2 p^T q over the simplex.

    Exact active-set solve, warm-started from ``start`` when given; the
    result's ``iterations`` counts equality solves. The KKT residual is the
    sup-norm of the projected-gradient fixed-point map p - P(p - grad f(p)).
    """
    k = np.asarray(gram_matrix, dtype=np.float64)
    q = np.asarray(linear, dtype=np.float64)
    if q.size == 1:
        return ProjectionResult(np.array([1.0]), 0.0, 0)
    p, solves = _active_set(k, q, start)
    residual = _kkt_residual(k, q, p)
    _accept(residual, "simplex projection")
    return ProjectionResult(p, residual, solves)


def solve_simplex_qp_batch(
    gram_matrix: np.ndarray,
    linear_rows: np.ndarray,
    start_rows: np.ndarray | None = None,
):
    """:func:`solve_simplex_qp` on each row of ``linear_rows``, for a shared
    Gram matrix, warm-started from the matching row of ``start_rows`` when
    that has one row per QP. Returns (weights rows, residuals, equality
    solves summed over rows).
    """
    q = np.atleast_2d(np.asarray(linear_rows, dtype=np.float64))
    if start_rows is None or start_rows.shape != q.shape:
        start_rows = [None] * q.shape[0]
    results = [solve_simplex_qp(gram_matrix, row, start) for row, start in zip(q, start_rows)]
    return (
        np.array([r.weights for r in results]).reshape(q.shape),
        np.array([r.kkt_residual for r in results]),
        sum(r.iterations for r in results),
    )


class SimplexProjector:
    """Repeated simplex projections onto one fixed support.

    Caches the Gram matrix so per-call work is the cross-kernel assembly
    plus the active-set solve.
    """

    def __init__(self, support_atoms, spec: KernelSpec):
        self.atoms = np.atleast_2d(np.asarray(support_atoms, dtype=np.float64))
        _check_distinct(self.atoms, 0)
        self.spec = spec
        self.gram = gram(self.atoms, spec)

    def linear_term(self, target_atoms, target_weights) -> np.ndarray:
        return cross_kernel(self.atoms, target_atoms, self.spec) @ target_weights

    def solve(self, q_rows: np.ndarray, start_rows: np.ndarray | None = None) -> np.ndarray:
        """Weight rows of the QPs with linear terms ``q_rows``, warm-started
        from ``start_rows``."""
        return solve_simplex_qp_batch(self.gram, q_rows, start_rows)[0]

    def project(self, target_atoms, target_weights) -> ProjectionResult:
        return solve_simplex_qp(self.gram, self.linear_term(target_atoms, target_weights))


class SignedProjector:
    """Repeated signed projections onto one fixed support.

    The affine-constrained solution is p = S q + offset with S and the
    offset fixed by the support, so projections reduce to matrix-vector
    products; ``affine_map`` exposes the map from target weights for a
    fixed target atom set.
    """

    def __init__(self, support_atoms, spec: KernelSpec):
        self.atoms = np.atleast_2d(np.asarray(support_atoms, dtype=np.float64))
        _check_distinct(self.atoms, 0)
        self.spec = spec
        self.gram = gram(self.atoms, spec)
        n = self.atoms.shape[0]
        if n == 1:
            self._s = np.zeros((1, 1))
            self.offset = np.array([1.0])
            return
        h = (
            self.gram[:-1, :-1]
            - self.gram[:-1, -1:]
            - self.gram[-1:, :-1]
            + self.gram[-1, -1]
        )
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "signed projection support yields a non-PD reduced system"
            ) from exc
        h_inv = np.linalg.inv(h)
        # S = B H^-1 B^T with B = [I; -1^T].
        top = np.concatenate([h_inv, -np.sum(h_inv, axis=0, keepdims=True)], axis=0)
        self._s = np.concatenate([top, -np.sum(top, axis=1, keepdims=True)], axis=1)
        p0 = np.zeros(n)
        p0[-1] = 1.0
        self.offset = p0 - self._s @ (self.gram @ p0)

    def solve(self, q_rows: np.ndarray, start_rows: np.ndarray | None = None) -> np.ndarray:
        """Weight rows S q + offset for the linear terms ``q_rows``; the
        solve is closed-form, so ``start_rows`` is not read."""
        return q_rows @ self._s.T + self.offset

    def project(self, target_atoms, target_weights) -> ProjectionResult:
        q = cross_kernel(self.atoms, target_atoms, self.spec) @ target_weights
        return ProjectionResult(self._s @ q + self.offset, 0.0, 1)

    def affine_map(self, target_atoms):
        """(M, b) with projected weights = M @ target_weights + b."""
        m = self._s @ cross_kernel(self.atoms, target_atoms, self.spec)
        return m, self.offset


def project_simplex(target: DiscreteMeasure, support, spec: KernelSpec) -> DiscreteMeasure:
    """MMD projection of ``target`` onto probability weights over ``support``."""
    return _project(SimplexProjector, target, support, spec)


def project_signed(target: DiscreteMeasure, support, spec: KernelSpec) -> DiscreteMeasure:
    """MMD projection of ``target`` onto mass-1 signed weights over ``support``."""
    return _project(SignedProjector, target, support, spec)


def _project(kind, target: DiscreteMeasure, support, spec: KernelSpec):
    projector = kind(support, spec)
    if abs(target.mass - 1.0) > 1e-9:
        raise InvalidInputError(f"projection target must have mass 1, got {target.mass}")
    result = projector.project(target.atoms, target.weights)
    return DiscreteMeasure(projector.atoms, result.weights)
