"""Euclidean power semimetrics, the kernels they induce, and MMD evaluation.

The semimetric rho_alpha(y1, y2) = ||y1 - y2||_2^alpha with alpha in (0, 2)
induces the kernel

    kappa(y1, y2) = (rho(y1, y0) + rho(y2, y0) - rho(y1, y2)) / 2

for a reference point y0. The squared MMD between two finite weighted atom
sets of equal total mass reduces to a quadratic form in the weight
difference, and because the mass difference is zero it is independent of
y0:

    MMD^2(p, q) = -1/2 * sum_ij (p - q)_i (p - q)_j rho(xi_i, xi_j).

All computations here operate on that finite form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, InvalidInputError

# Total-mass tolerance for measures entering MMD computations.
MASS_TOL = 1e-9
# Componentwise tolerance under which atoms are treated as identical.
MERGE_TOL = 1e-12
# Round-off window within which a negative squared MMD is clamped to zero.
NEGATIVE_SQ_TOL = 1e-12

# Entry budget for blockwise pairwise-distance accumulation.
_BLOCK_ENTRIES = 2**22
# Entry budget of the row slabs that fill one block (signed_energy_sum).
_SLAB_ENTRIES = 2**16


@dataclass(frozen=True)
class SemimetricSpec:
    """Semimetric rho(y1, y2) = ||y1 - y2||_2^alpha, alpha in (0, 2)."""

    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise InvalidInputError(
                f"semimetric exponent must lie in (0, 2), got {self.alpha}"
            )


@dataclass(frozen=True)
class KernelSpec:
    """Kernel induced by a power semimetric around a reference point.

    ``reference_point=None`` stands for the origin of whatever dimension
    the evaluated vectors have. Gram matrices depend on it, but MMDs
    between equal-mass measures and projected weights do not, and neither
    does the work of a projection; config schema v1 keeps it for that
    reason only.
    """

    semimetric: SemimetricSpec = field(default_factory=SemimetricSpec)
    reference_point: np.ndarray | None = None

    def __post_init__(self):
        if self.reference_point is not None:
            y0 = np.asarray(self.reference_point, dtype=np.float64)
            if y0.ndim != 1:
                raise InvalidInputError("reference point must be a flat vector")
            object.__setattr__(self, "reference_point", y0)

    @property
    def alpha(self) -> float:
        return self.semimetric.alpha

    def reference_for_dim(self, dim: int) -> np.ndarray:
        if self.reference_point is None:
            return np.zeros(dim)
        if self.reference_point.shape[0] != dim:
            raise InvalidInputError(
                f"reference point has dimension {self.reference_point.shape[0]}, "
                f"expected {dim}"
            )
        return self.reference_point


def energy_kernel(alpha: float = 1.0, reference_point=None) -> KernelSpec:
    """Convenience constructor for the energy-distance kernel."""
    return KernelSpec(SemimetricSpec(alpha), reference_point)


def _as_points(y, name: str) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 1:
        return arr
    raise InvalidInputError(f"{name} must be a flat vector, got shape {arr.shape}")


def semimetric_eval(spec: SemimetricSpec, y1, y2) -> float:
    """Evaluate ||y1 - y2||^alpha with a dimension check."""
    a = _as_points(y1, "y1")
    b = _as_points(y2, "y2")
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) ** spec.alpha)


def kernel_eval(spec: KernelSpec, y1, y2) -> float:
    """Evaluate the induced kernel kappa(y1, y2)."""
    a = _as_points(y1, "y1")
    b = _as_points(y2, "y2")
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    y0 = spec.reference_for_dim(a.shape[0])
    rho = spec.semimetric
    return 0.5 * (
        semimetric_eval(rho, a, y0)
        + semimetric_eval(rho, b, y0)
        - semimetric_eval(rho, a, b)
    )


def pairwise_semimetric(a: np.ndarray, b: np.ndarray, spec: SemimetricSpec) -> np.ndarray:
    """Matrix of rho(a_i, b_j) for row stacks of points."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if spec.alpha == 1.0:
        return dist
    return dist**spec.alpha


def gram(atoms, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix K_ij = kappa(xi_i, xi_j) over an atom list.

    Symmetric by construction; the diagonal entry i equals rho(xi_i, y0).
    """
    pts = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    if pts.shape[0] < 1:
        raise InvalidInputError("gram requires at least one atom")
    y0 = spec.reference_for_dim(pts.shape[1])
    rho0 = pairwise_semimetric(pts, y0[None, :], spec.semimetric)[:, 0]
    rho = pairwise_semimetric(pts, pts, spec.semimetric)
    k = 0.5 * (rho0[:, None] + rho0[None, :] - rho)
    return 0.5 * (k + k.T)


def cross_kernel(left, right, spec: KernelSpec) -> np.ndarray:
    """Matrix of kappa(left_i, right_j)."""
    a = np.atleast_2d(np.asarray(left, dtype=np.float64))
    b = np.atleast_2d(np.asarray(right, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    y0 = spec.reference_for_dim(a.shape[1])
    rho_a = pairwise_semimetric(a, y0[None, :], spec.semimetric)[:, 0]
    rho_b = pairwise_semimetric(b, y0[None, :], spec.semimetric)[:, 0]
    rho = pairwise_semimetric(a, b, spec.semimetric)
    return 0.5 * (rho_a[:, None] + rho_b[None, :] - rho)


def signed_energy_sum(atoms: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """sum_ij w_i w_j rho_alpha(a_i, a_j) for signed weights.

    Uses an exact O(n log n) prefix-sum evaluation for scalar atoms with
    alpha = 1; otherwise accumulates the pairwise matrix in row blocks of
    at most ``_BLOCK_ENTRIES`` entries. Each block is one ``(rows, n)``
    array of squared distances, summed one coordinate at a time and
    filled in row slabs of about ``_SLAB_ENTRIES`` entries. A slab
    computes the columns before the block and those from its own first
    row onward; the columns from the block start to the slab start are
    copied from the transpose of the rows already filled. The copy is
    bitwise what computing would give, because (a - b)^2 = (b - a)^2
    exactly and the coordinates are summed in the same order. The square
    root and the power then run over the whole block, so they and the
    ``weights @ dist @ weights`` product see the same bytes as a block
    computed in full.
    """
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
    block = max(1, _BLOCK_ENTRIES // n)
    slab = max(1, _SLAB_ENTRIES // n)
    cols = atoms.T
    scratch = np.empty(min(slab, n) * n)
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = np.empty((stop - start, n))
        for top in range(start, stop, slab):
            bottom = min(top + slab, stop)
            rows = dist[top - start : bottom - start]
            for lo, hi in ((0, start), (top, n)):
                if lo == hi:
                    continue
                out = rows[:, lo:hi]
                np.subtract(cols[0, top:bottom, None], cols[0, lo:hi], out=out)
                out *= out
                tmp = scratch[: out.size].reshape(out.shape)
                for col in cols[1:]:
                    np.subtract(col[top:bottom, None], col[lo:hi], out=tmp)
                    tmp *= tmp
                    out += tmp
            rows[:, start:top] = dist[: top - start, top:bottom].T
        np.sqrt(dist, out=dist)
        if alpha != 1.0:
            dist **= alpha
        total += float(weights[start:stop] @ dist @ weights)
    return total


def merge_close_atoms(atoms: np.ndarray, weights: np.ndarray, tol: float = MERGE_TOL):
    """Sum weights of atoms that coincide within ``tol`` componentwise.

    Atoms are bucketed on a ``tol``-spaced lattice, which is how float
    pushforwards produce near-duplicates in practice. Returns the first
    representative of each bucket and the summed weights, buckets in
    lexicographic order of their lattice keys (coordinate 0 first). One
    stable ``np.lexsort`` of the keys gives that order and, within a
    bucket, the original row order, so the representatives, the bucket
    order and the ``np.add.at`` sums are those of
    ``np.unique(keys, axis=0)``. ``atoms`` needs at least one row.
    """
    # Keys compare as floats, so -0.0 and +0.0 fall in one bucket.
    keys = np.round(atoms / tol)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.empty(order.shape[0], dtype=bool)
    new[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    merged_w = np.zeros(np.count_nonzero(new))
    np.add.at(merged_w, inverse, weights)
    return atoms[order[new]], merged_w


def _stack_difference(p, q):
    """Concatenated atoms with weights w_p on p and -w_q on q, merged."""
    atoms = np.concatenate([p.atoms, q.atoms], axis=0)
    weights = np.concatenate([p.weights, -q.weights])
    return merge_close_atoms(atoms, weights)


def mmd_squared(p, q, spec: KernelSpec) -> float:
    """Squared MMD between two mass-1 discrete (possibly signed) measures.

    The value is clamped to zero when round-off produces a tiny negative;
    a negative beyond the round-off window raises ``ConsistencyError``.
    """
    if p.dim != q.dim:
        raise InvalidInputError(f"dimension mismatch: {p.dim} vs {q.dim}")
    for name, measure in (("p", p), ("q", q)):
        if abs(measure.mass - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"{name} must have total mass 1, got {measure.mass!r}"
            )
    atoms, diff = _stack_difference(p, q)
    if not np.any(diff):
        return 0.0
    value = -0.5 * signed_energy_sum(atoms, diff, spec.alpha)
    if value < 0.0:
        if value < -NEGATIVE_SQ_TOL:
            raise ConsistencyError(
                f"squared MMD evaluated to {value}, below the round-off window"
            )
        return 0.0
    return value


def mmd(p, q, spec: KernelSpec) -> float:
    """MMD between two mass-1 discrete measures."""
    return float(np.sqrt(mmd_squared(p, q, spec)))
