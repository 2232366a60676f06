"""Metrics, Monte Carlo oracles, and zero-shot scalar evaluation.

Includes the supremal (worst-state) MMD, exact Cramer distances between
finite scalar distributions, unbiased two-sample MMD estimation from raw
samples, rollout-based ground truth, and mesh / fixed-point-error bound
calculators for categorical supports.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .kernels import MASS_TOL, MERGE_TOL, KernelSpec, mmd, pairwise_semimetric
from .measures import PROBABILITY_TOL, DiscreteMeasure, ReturnDistFn, SupportMap, empirical
from .mdp import TabularMDP, horizon_for_tail, rollout_returns

_HULL_TOL = 1e-9


@dataclass(frozen=True)
class ScalarDist:
    """Finite scalar distribution with sorted, deduplicated atoms."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if atoms.shape != weights.shape or atoms.size < 1:
            raise InvalidInputError("scalar distribution needs matching atoms/weights")
        low = np.min(weights)
        if low < -PROBABILITY_TOL:
            raise InvalidInputError("scalar distributions take probability weights")
        if abs(float(np.sum(weights)) - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"scalar distribution mass must be 1, got {np.sum(weights)}"
            )
        # No tie order changes a sum of equal weights; a zero's sign would
        # move. (A NaN weight fails low == max, as it fails w == w[0].)
        plain = low == np.max(weights)
        if plain:
            ordered = np.sort(atoms)
            zero = bisect.bisect_left(ordered, 0.0)
            plain = zero == ordered.size or ordered[zero] != 0.0
        if plain:
            atoms = ordered
        else:
            order = np.argsort(atoms, kind="stable")
            atoms, weights = atoms[order], weights[order]
        # Merge atoms equal within the tolerance (they arrive sorted): an
        # atom starts a new one where its key exceeds the key before, which
        # is where np.diff(keys) > 0 (a -0.0 key included). rint is what
        # np.round does at 0 decimals. NaN sorts last, so the end keys
        # show whether every key is finite, as merging needs.
        with np.errstate(over="ignore"):
            keys = np.divide(atoms, MERGE_TOL)
        np.rint(keys, out=keys)
        if not (math.isfinite(keys[0]) and math.isfinite(keys[-1])):
            raise InvalidInputError(f"scalar atoms / {MERGE_TOL} must be finite to merge atoms")
        starts = np.empty(atoms.size, dtype=bool)
        starts[0] = True
        np.greater(keys[1:], keys[:-1], out=starts[1:])
        del keys
        if np.count_nonzero(starts) == atoms.size:
            # Nothing merges: reduceat over single atoms would copy them.
            merged_atoms, merged_weights = atoms, np.maximum(weights, 0.0)
        else:
            idx = np.flatnonzero(starts)
            merged_atoms = atoms[idx]
            merged_weights = np.add.reduceat(weights, idx)
            np.maximum(merged_weights, 0.0, out=merged_weights)
        merged_weights /= np.sum(merged_weights)
        merged_atoms.flags.writeable = False
        merged_weights.flags.writeable = False
        object.__setattr__(self, "atoms", merged_atoms)
        object.__setattr__(self, "weights", merged_weights)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def to_measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.atoms[:, None], self.weights)


@dataclass(frozen=True)
class MeshReport:
    """Worst-state mesh and the induced fixed-point error bound."""

    mesh: float
    fixed_point_bound: float
    uniform_grid_bound: float | None
    exact: bool


def sup_mmd(eta1: ReturnDistFn, eta2: ReturnDistFn, spec: KernelSpec) -> float:
    """Worst-state MMD between two return-distribution functions."""
    if eta1.n_states != eta2.n_states:
        raise InvalidInputError(
            f"state counts differ: {eta1.n_states} vs {eta2.n_states}"
        )
    if eta1.dim != eta2.dim:
        raise InvalidInputError(f"dimensions differ: {eta1.dim} vs {eta2.dim}")
    return max(mmd(eta1[x], eta2[x], spec) for x in range(eta1.n_states))


def zeroshot_scalar(eta_x: DiscreteMeasure, w) -> ScalarDist:
    """Scalar return distribution under the reward weight vector ``w``.

    Atoms map to their inner products with ``w``; weights must already be
    probabilities (project signed estimates onto the simplex first).
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if w.shape[0] != eta_x.dim:
        raise InvalidInputError(
            f"weight vector has dimension {w.shape[0]}, measure has {eta_x.dim}"
        )
    if np.min(eta_x.weights) < -PROBABILITY_TOL:
        raise InvalidInputError(
            "zero-shot evaluation needs probability weights; project first"
        )
    return ScalarDist(eta_x.atoms @ w, eta_x.weights)


def cramer_distance(p: ScalarDist, q: ScalarDist) -> float:
    """L2 norm of the CDF difference, integrated exactly.

    Both CDFs are piecewise constant, so the integral is a finite sum over
    the merged breakpoints: every atom of ``q``, and each atom of ``p``
    that no atom of ``q`` equals (a lone atom). Atoms are sorted and
    distinct, so a left ``searchsorted`` counts the k atoms of ``q`` below
    each atom of ``p``; a lone atom with i lone atoms before it is
    breakpoint k + i. The breakpoints, the CDF values and their
    differences are those a stable merge of both arrays, ``p``'s first,
    would give element by element, so the sum has the same bits.
    """
    a, b = p.atoms, q.atoms
    below = b.searchsorted(a)
    # Past q's largest atom, clip compares with that atom, which is smaller.
    lone = b.take(below, mode="clip") != a
    place = below[lone]
    at = place + np.arange(place.size)
    size = b.size + place.size
    from_q = np.ones(size, dtype=bool)
    from_q[at] = False
    # Each merged-length array is dropped once read: with a 10,000-atom
    # oracle truth, the arrays live here set the zero-shot phase's peak heap.
    p_cdf, q_cdf = p.cdf(), q.cdf()
    # At the atoms of q, p's CDF holds each value over a run of them.
    at_q = np.repeat(np.concatenate(([0.0], p_cdf)), np.diff(below, prepend=0, append=b.size))
    at_q -= q_cdf
    diff = np.empty(size)
    diff[from_q] = at_q
    del at_q
    diff[at] = p_cdf[lone] - np.where(place > 0, q_cdf.take(place - 1, mode="clip"), 0.0)
    del q_cdf
    breaks = np.empty(size)
    breaks[from_q] = b
    breaks[at] = a[lone]
    del from_q
    gaps = np.diff(breaks)
    del breaks
    terms = np.square(diff[:-1], out=diff[:-1])
    terms *= gaps
    return float(np.sqrt(np.sum(terms)))


def mc_oracle_fn(
    mdp: TabularMDP,
    n_samples: int,
    tail_tol: float,
    rng: np.random.Generator,
) -> ReturnDistFn:
    """Per-state Monte Carlo ground truth: ``n_samples`` rollout returns
    from each state in turn, truncated where the tail bound falls below
    ``tail_tol``."""
    if n_samples < 1:
        raise InvalidInputError("need at least one rollout")
    horizon = horizon_for_tail(mdp, tail_tol)
    return ReturnDistFn(
        tuple(
            empirical(rollout_returns(mdp, x, horizon, n_samples, rng))
            for x in range(mdp.n_states)
        )
    )


def mmd_u_statistic(samples_p, samples_q, spec: KernelSpec) -> float:
    """Unbiased squared-MMD estimate from raw samples (diagonals excluded).

    May be negative. Evaluated in the semimetric form: cross mean minus
    half of each within-sample off-diagonal mean.
    """
    p = np.asarray(samples_p, dtype=np.float64)
    q = np.asarray(samples_q, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    if q.ndim == 1:
        q = q[:, None]
    n, m = p.shape[0], q.shape[0]
    if n < 2 or m < 2:
        raise InvalidInputError("unbiased estimation needs >= 2 samples per side")
    cross = float(np.sum(pairwise_semimetric(p, q, spec))) / (n * m)
    within_p = float(np.sum(pairwise_semimetric(p, p, spec))) / (n * (n - 1))
    within_q = float(np.sum(pairwise_semimetric(q, q, spec))) / (m * (m - 1))
    return cross - 0.5 * within_p - 0.5 * within_q


def _grid_cell_mesh(grid_axes, v_max: float, alpha: float) -> float:
    """Exact mesh of the grid's Voronoi cell partition over [0, v_max]^d."""
    side_maxima = []
    for axis in grid_axes:
        pts = np.asarray(axis, dtype=np.float64)
        lo = np.concatenate(([0.0], (pts[:-1] + pts[1:]) / 2.0))
        hi = np.concatenate(((pts[:-1] + pts[1:]) / 2.0, [v_max]))
        side_maxima.append(float(np.max(hi - lo)))
    diameter = math.sqrt(sum(s * s for s in side_maxima))
    return diameter**alpha


def _greedy_cell_mesh(atoms: np.ndarray, v_max: float, alpha: float) -> float:
    """Upper estimate of the nearest-atom partition mesh via lattice probing.

    Every cell's diameter is at most twice its covering radius; the radius
    is probed on a regular lattice and inflated by the lattice half
    diagonal so the result stays an upper bound.
    """
    d = atoms.shape[1]
    per_axis = max(2, min(4096, int(round(32768 ** (1.0 / d)))))
    axis = np.linspace(0.0, v_max, per_axis)
    mesh_pts = np.meshgrid(*([axis] * d), indexing="ij")
    probes = np.stack([m.ravel() for m in mesh_pts], axis=1)
    dist = pairwise_semimetric(probes, atoms, KernelSpec())
    cover = float(np.max(np.min(dist, axis=1)))
    spacing = axis[1] - axis[0] if per_axis > 1 else 0.0
    cover += 0.5 * spacing * math.sqrt(d)
    return (2.0 * cover) ** alpha


def mesh_and_bound(
    support: SupportMap, mdp: TabularMDP, spec: KernelSpec
) -> MeshReport:
    """Worst-state mesh plus the fixed-point error bound it implies.

    Grid supports get the exact Voronoi-cell mesh; arbitrary supports get
    a sound upper estimate from a greedy nearest-atom partition. For
    uniform grids spanning the return hypercube, the closed-form bound in
    terms of the atom count is reported as well.
    """
    v_max = mdp.v_max
    for x in range(support.n_states):
        atoms = support[x]
        if np.any(atoms < -_HULL_TOL) or np.any(atoms > v_max + _HULL_TOL):
            raise InvalidInputError(
                f"support atoms at state {x} leave the return hypercube "
                f"[0, {v_max}]^{support.dim}"
            )
    alpha = spec.alpha
    if support.grid_axes is not None:
        mesh = _grid_cell_mesh(support.grid_axes, v_max, alpha)
        exact = True
    else:
        mesh = max(
            _greedy_cell_mesh(support[x], v_max, alpha)
            for x in range(support.n_states)
        )
        exact = False
    contraction_gap = 1.0 - mdp.gamma ** (alpha / 2.0)
    fixed_point_bound = math.sqrt(mesh) / contraction_gap

    uniform_bound = None
    if support.grid_axes is not None:
        m_total = support[0].shape[0]
        root = m_total ** (1.0 / support.dim)
        if root > 2.0:
            uniform_bound = (
                support.dim ** (alpha / 4.0)
                * mdp.r_max ** (alpha / 2.0)
                / (
                    contraction_gap
                    * (1.0 - mdp.gamma) ** (alpha / 2.0)
                    * (root - 2.0) ** (alpha / 2.0)
                )
            )
    return MeshReport(mesh, fixed_point_bound, uniform_bound, exact)
