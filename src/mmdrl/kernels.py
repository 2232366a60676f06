"""Euclidean power semimetrics, the kernel they define, and MMD evaluation.

The semimetric rho_alpha(y1, y2) = ||y1 - y2||_2^alpha with alpha in (0, 2)
induces the kernels

    kappa(y1, y2) = (rho(y1, y0) + rho(y2, y0) - rho(y1, y2)) / 2

for reference points y0. On weights of total mass 1 the y0 terms add only
a constant: with p and w of mass 1,

    p^T K p - 2 p^T K_c w = -1/2 p^T R p + p^T R_c w + const(w),

R and R_c being the semimetric matrices (Sejdinovic et al. 2013, Ann.
Statist. 41(5)). So every projection, sup-MMD and squared MMD here uses
K = -R / 2 (``gram``, ``cross_kernel``) and no reference point; between
measures of equal mass

    MMD^2(p, q) = -1/2 * sum_ij (p - q)_i (p - q)_j rho(xi_i, xi_j).

The energy and cross sums behind it never hold a whole matrix: one
budget, ``_BLOCK_ENTRIES``, bounds the row blocks of rho they fill, the
energy sum walks only the upper triangle, and each call holds at most
2 ``_BLOCK_ENTRIES`` doubles, filled from contiguous coordinate rows
without numpy's ufunc buffering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInputError

# Total-mass tolerance for measures entering MMD computations.
MASS_TOL = 1e-9
# Componentwise tolerance under which atoms are treated as identical.
MERGE_TOL = 1e-12
# Round-off window within which a negative squared MMD is clamped to zero.
NEGATIVE_SQ_TOL = 1e-12

# Entry budget of one row block of semimetric values; each energy or
# cross sum holds two such blocks.
_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class KernelSpec:
    """Power semimetric rho(y1, y2) = ||y1 - y2||_2^alpha, alpha in (0, 2),
    and the kernel -rho / 2 it defines on mass-1 weights."""

    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise InvalidInputError(
                f"semimetric exponent must lie in (0, 2), got {self.alpha}"
            )


def pairwise_semimetric(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Matrix of rho(a_i, b_j) for row stacks of points.

    For ``a is b`` the matrix is exactly symmetric with a zero diagonal:
    (a_i - a_j)^2 = (a_j - a_i)^2 in floating point, and the coordinates
    are summed in the same order.
    """
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
    """Kernel matrix K_ij = -rho(xi_i, xi_j) / 2 over an atom list."""
    pts = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    if pts.shape[0] < 1:
        raise InvalidInputError("gram requires at least one atom")
    return -0.5 * pairwise_semimetric(pts, pts, spec)


def cross_kernel(left, right, spec: KernelSpec) -> np.ndarray:
    """Matrix of -rho(left_i, right_j) / 2."""
    return -0.5 * pairwise_semimetric(left, right, spec)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, x_0, x_0 + x_1, ...], summed in order as ``np.cumsum`` sums."""
    out = np.empty(x.shape[0] + 1)
    out[0] = 0.0
    np.add.accumulate(x, out=out[1:])
    return out


def _rho_block(a: np.ndarray, b: np.ndarray, alpha: float, buffer: np.ndarray) -> np.ndarray:
    """rho_alpha(a_i, b_j) as an ``(len(a), len(b))`` view of ``buffer[0]``:
    squared differences summed from coordinate 0 on, then the square root
    and the power. ``buffer[1]`` is scratch for the coordinates past 0.

    The differences, squares and sums run on contiguous coordinate rows
    with the ufunc buffer size at 16, restored after: at the default 8192,
    numpy 2.4.6 sends a broadcast subtraction whose block row has at most
    about 2730 entries through its buffered iterator, which copies it
    through about 128 KiB of buffers. The bytes are the same either way."""
    dist, tmp = (row[: a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0]) for row in buffer)
    rows_a, rows_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    size = np.setbufsize(16)
    try:
        np.subtract(rows_a[0, :, None], rows_b[0], out=dist)
        dist *= dist
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            np.subtract(row_a[:, None], row_b, out=tmp)
            tmp *= tmp
            dist += tmp
    finally:
        np.setbufsize(size)
    np.sqrt(dist, out=dist)
    if alpha != 1.0:
        dist **= alpha
    return dist


def signed_energy_sum(atoms: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """sum_ij w_i w_j rho_alpha(a_i, a_j) for signed weights.

    Uses an exact O(n log n) prefix-sum evaluation for scalar atoms with
    alpha = 1. Otherwise the upper triangle is walked in row blocks
    B = [s, s + r), r = max(1, ``_BLOCK_ENTRIES`` // n), against the
    columns [s, n) only: each block adds w_B rho_BB w_B, then
    2 w_B rho_B,rest w_rest for the columns past the block. The blocks
    come from ``_rho_block`` in one buffer of at most 2 ``_BLOCK_ENTRIES``
    doubles, allocated once per call.
    """
    n, d = atoms.shape
    if n == 1:
        return 0.0
    if d == 1 and alpha == 1.0:
        order = atoms[:, 0].argsort(kind="stable")
        z = atoms[order, 0]
        w = weights[order]
        prefix_w = _prefix_sums(w)[:-1]
        prefix_wz = _prefix_sums(w * z)[:-1]
        return float(2.0 * np.add.reduce(w * (z * prefix_w - prefix_wz)))
    rows = min(max(1, _BLOCK_ENTRIES // n), n)
    buffer = np.empty((2, rows * n))
    total = 0.0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        dist = _rho_block(atoms[start:stop], atoms[start:], alpha, buffer)
        w = weights[start:stop]
        total += float(w @ dist[:, : stop - start] @ w)
        if stop < n:
            total += 2.0 * float(w @ dist[:, stop - start :] @ weights[stop:])
    return total


def signed_cross_sum(
    a: np.ndarray, wa: np.ndarray, b: np.ndarray, wb: np.ndarray, alpha: float
) -> float:
    """sum_ij wa_i wb_j rho_alpha(a_i, b_j) between two atom sets.

    Scalar atoms with alpha = 1 take an exact O((n_a + n_b) log n_b)
    route: with b sorted and k the count of b_j below a_i, the prefix
    sums P of wb and Q of wb * b give sum_j wb_j |a_i - b_j| =
    a_i (2 P_k - P_n) + Q_n - 2 Q_k. Otherwise the (n_a, n_b) matrix is
    accumulated in row blocks of max(1, ``_BLOCK_ENTRIES`` // n_b) rows,
    each filled by ``_rho_block`` as ``signed_energy_sum`` fills its
    blocks, in one buffer of at most 2 ``_BLOCK_ENTRIES`` doubles.
    """
    d = a.shape[1]
    if d == 1 and alpha == 1.0:
        order = b[:, 0].argsort(kind="stable")
        z = b[order, 0]
        w = wb[order]
        prefix_w = _prefix_sums(w)
        prefix_wz = _prefix_sums(w * z)
        k = z.searchsorted(a[:, 0])
        below = 2.0 * prefix_w[k] - prefix_w[-1]
        above = prefix_wz[-1] - 2.0 * prefix_wz[k]
        return float(np.add.reduce(wa * (a[:, 0] * below + above)))
    na, nb = a.shape[0], b.shape[0]
    rows = min(max(1, _BLOCK_ENTRIES // nb), na)
    buffer = np.empty((2, rows * nb))
    total = 0.0
    for start in range(0, na, rows):
        stop = min(start + rows, na)
        total += float(wa[start:stop] @ _rho_block(a[start:stop], b, alpha, buffer) @ wb)
    return total


def merge_close_atoms(atoms: np.ndarray, weights: np.ndarray):
    """Sum weights of atoms that coincide within ``MERGE_TOL`` componentwise.

    Atoms are bucketed on a ``MERGE_TOL``-spaced lattice, which is how float
    pushforwards produce near-duplicates in practice. Returns the first
    representative of each bucket and the summed weights, buckets in
    lexicographic order of their lattice keys (coordinate 0 first). One
    stable ``np.lexsort`` of the keys gives that order and, within a
    bucket, the original row order, so the representatives, the bucket
    order and the ``np.add.at`` sums are those of
    ``np.unique(keys, axis=0)``. ``atoms`` needs at least one row. A key
    that is not finite (an atom past about 1.8e296 in size, or not finite
    itself) would merge atoms that differ, and raises ``InvalidInputError``.
    """
    # Keys compare as floats, so -0.0 and +0.0 fall in one bucket.
    with np.errstate(over="ignore"):
        keys = (atoms / MERGE_TOL).round()
    if not np.isfinite(keys).all():
        raise InvalidInputError(f"atoms / {MERGE_TOL} must be finite to merge atoms")
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.empty(order.shape[0], dtype=bool)
    new[0] = True
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    ranks = new.cumsum() - 1
    inverse = np.empty_like(order)
    inverse[order] = ranks
    merged_w = np.zeros(ranks[-1] + 1)
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
