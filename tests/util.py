"""Shared helpers for building random test fixtures."""

import numpy as np

from mmdrl import DiscreteMeasure
from mmdrl.evaluation import _ATOM_MERGE


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
