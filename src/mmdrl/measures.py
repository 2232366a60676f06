"""Discrete (possibly signed) measures on R^d and return-distribution functions.

``DiscreteMeasure`` is the universal distribution representation: a finite
list of atoms with (possibly signed) weights. Return-distribution
functions assign one mass-1 measure to every MDP state. ``SupportMap``
fixes the finite per-state atom sets used by the categorical algorithms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    json_array,
    json_integer,
    json_list,
    read_fields,
    read_json,
    require,
    write_json,
)
from .kernels import MASS_TOL, KernelSpec, merge_close_atoms, pairwise_semimetric

# Negative-weight slack tolerated in probability measures before clamping.
PROBABILITY_TOL = 1e-12
# Minimum pairwise gap between support atoms.
SUPPORT_GAP = 1e-9

# The fields of a measure and of a return-distribution file, as the
# ``to_json`` methods below write them.
_MEASURE_FIELDS = {"dim": json_integer, "atoms": json_array("points"),
                   "weights": json_array("vector")}


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atom set in R^d. Weights may be signed.

    Instances are immutable; the backing arrays are copied on construction
    and marked read-only.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=np.float64, copy=True)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        require(atoms.ndim == 2 and atoms.shape[0] >= 1,
                f"atoms must be (n, d) with n >= 1, got {atoms.shape}")
        weights = np.array(self.weights, dtype=np.float64, copy=True).ravel()
        require(weights.shape[0] == atoms.shape[0],
                f"{weights.shape[0]} weights for {atoms.shape[0]} atoms")
        require(np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights)),
                "atoms and weights must be finite")
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @classmethod
    def point(cls, atom) -> "DiscreteMeasure":
        """Dirac measure at a single atom."""
        vec = np.atleast_1d(np.asarray(atom, dtype=np.float64))
        return cls(vec[None, :], np.array([1.0]))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DiscreteMeasure":
        f = read_fields(payload, _MEASURE_FIELDS, "measure")
        require(f["atoms"].shape[1] == f["dim"], "serialized dim does not match atom shape")
        return cls(f["atoms"], f["weights"])


def as_probability(p: DiscreteMeasure) -> DiscreteMeasure:
    """Interpret a measure as a probability: clamp tiny negative weights.

    Weights below ``-PROBABILITY_TOL`` are rejected; negatives within the
    tolerance are clamped to zero and the result renormalized to mass 1.
    """
    w = p.weights
    if np.min(w) < -PROBABILITY_TOL:
        raise InvalidInputError(
            f"weights as low as {np.min(w)} cannot be read as probabilities"
        )
    if abs(p.mass - 1.0) > MASS_TOL:
        raise InvalidInputError(f"probability measure must have mass 1, got {p.mass}")
    clamped = np.maximum(w, 0.0)
    return DiscreteMeasure(p.atoms, clamped / np.sum(clamped))


def pushforward(p: DiscreteMeasure, shift, scale: float) -> DiscreteMeasure:
    """Image of ``p`` under z -> shift + scale * z. Weights are unchanged."""
    if not 0.0 <= scale < 1.0:
        raise InvalidInputError(f"scale must lie in [0, 1), got {scale}")
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.shape[0] != p.dim:
        raise InvalidInputError(
            f"shift has dimension {shift.shape[0]}, measure has {p.dim}"
        )
    return DiscreteMeasure(shift[None, :] + scale * p.atoms, p.weights)


def mixture(components) -> DiscreteMeasure:
    """Finite mixture sum_k a_k * p_k with coefficients summing to 1.

    Atoms coinciding within the merge tolerance are combined; exact zero
    weights produced by cancellation are dropped (at least one atom is
    always kept).
    """
    components = list(components)
    if not components:
        raise InvalidInputError("mixture of zero components")
    coeffs = np.array([c[0] for c in components], dtype=np.float64)
    if abs(np.sum(coeffs) - 1.0) > MASS_TOL:
        raise InvalidInputError(
            f"mixture coefficients must sum to 1, got {np.sum(coeffs)}"
        )
    dims = {c[1].dim for c in components}
    if len(dims) > 1:
        raise InvalidInputError(f"mixed dimensions in mixture: {sorted(dims)}")
    atoms = np.concatenate([c[1].atoms for c in components], axis=0)
    weights = np.concatenate([a * c.weights for a, c in components])
    atoms, weights = merge_close_atoms(atoms, weights)
    keep = weights != 0.0
    if np.any(keep) and not np.all(keep):
        atoms, weights = atoms[keep], weights[keep]
    return DiscreteMeasure(atoms, weights)


def empirical(samples) -> DiscreteMeasure:
    """Equally weighted measure on raw sample slots (duplicates kept)."""
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 1:
        raise InvalidInputError("empirical measure of zero samples")
    m = pts.shape[0]
    return DiscreteMeasure(pts, np.full(m, 1.0 / m))


_RETURN_DIST_FIELDS = {"n_states": json_integer,
                       "measures": json_list(DiscreteMeasure.from_json, "measures")}


@dataclass(frozen=True)
class ReturnDistFn:
    """Per-state return distributions: one mass-1 measure per state."""

    measures: tuple

    def __post_init__(self):
        measures = tuple(self.measures)
        require(measures, "return-distribution function over zero states")
        dims = {m.dim for m in measures}
        require(len(dims) == 1, f"states carry mixed dimensions: {sorted(dims)}")
        for x, m in enumerate(measures):
            if abs(m.mass - 1.0) > MASS_TOL:
                raise InvalidInputError(
                    f"state {x} has mass {m.mass}, every state needs mass 1"
                )
        object.__setattr__(self, "measures", measures)

    @property
    def n_states(self) -> int:
        return len(self.measures)

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    def __getitem__(self, x: int) -> DiscreteMeasure:
        return self.measures[x]

    def __iter__(self):
        return iter(self.measures)

    def check_fits(self, mdp, what: str) -> None:
        """Raise ``InvalidInputError``, naming ``what``, unless this holds
        one measure per state of ``mdp``, of its cumulant dimension."""
        require((self.n_states, self.dim) == (mdp.n_states, mdp.dim),
                f"{what} holds {self.n_states} measures of dimension {self.dim}; "
                f"the MDP has {mdp.n_states} states of dimension {mdp.dim}")

    def to_json(self) -> dict:
        return {
            "n_states": self.n_states,
            "measures": [m.to_json() for m in self.measures],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ReturnDistFn":
        f = read_fields(payload, _RETURN_DIST_FIELDS, "return distribution")
        require(f["n_states"] == len(f["measures"]), f"return distribution n_states is "
                f"{f['n_states']}, but it holds {len(f['measures'])} measures")
        return cls(f["measures"])

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "ReturnDistFn":
        return cls.from_json(read_json(path, "return distribution file"))


def _check_distinct(atoms: np.ndarray, what: str) -> None:
    """Refuse atoms closer than ``SUPPORT_GAP``; ``what`` names them."""
    n = atoms.shape[0]
    if n < 2:
        return
    # O(n^2) distance check; supports stay small enough for this.
    dist = pairwise_semimetric(atoms, atoms, KernelSpec())
    dist[np.arange(n), np.arange(n)] = np.inf
    if dist.min() <= SUPPORT_GAP:
        raise InvalidInputError(f"{what} are closer than {SUPPORT_GAP}")


@dataclass(frozen=True)
class SupportMap:
    """Per-state finite atom sets fixing a categorical representation.

    ``grid_axes`` is set by the uniform-grid constructor and lets mesh
    computations use the exact cell partition of the grid.
    """

    atoms: tuple
    grid_axes: tuple | None = None

    def __post_init__(self):
        per_state = []
        for x, a in enumerate(self.atoms):
            arr = np.array(a, dtype=np.float64, copy=True)
            if arr.ndim == 1:
                arr = arr[:, None]
            require(arr.ndim == 2 and arr.shape[1] >= 1, f"support atoms at state {x} must "
                    f"be (n, d) with d >= 1, got shape {arr.shape}")
            require(arr.shape[0] >= 1, f"state {x} has an empty support")
            require(np.all(np.isfinite(arr)), f"support atoms at state {x} must be finite")
            _check_distinct(arr, f"support atoms at state {x}")
            arr.flags.writeable = False
            per_state.append(arr)
        dims = {a.shape[1] for a in per_state}
        require(dims, "a support map needs at least one state")
        require(len(dims) == 1, f"support dimensions differ: {sorted(dims)}")
        object.__setattr__(self, "atoms", tuple(per_state))

    @property
    def n_states(self) -> int:
        return len(self.atoms)

    @property
    def dim(self) -> int:
        return self.atoms[0].shape[1]

    def __getitem__(self, x: int) -> np.ndarray:
        return self.atoms[x]

    def sizes(self) -> list:
        return [a.shape[0] for a in self.atoms]

    @classmethod
    def constant(cls, atoms, n_states: int, grid_axes=None) -> "SupportMap":
        arr = np.asarray(atoms, dtype=np.float64)
        return cls(tuple(arr for _ in range(n_states)), grid_axes)

    @classmethod
    def uniform_grid(cls, n_states: int, dim: int, n_atoms: int, v_max: float) -> "SupportMap":
        """Uniform grid on [0, v_max]^d with round(n_atoms^(1/d)) points per axis.

        ``n_atoms`` must be at least 2^d, two points per axis; the grid then
        has round(n_atoms^(1/d))^d atoms.
        """
        if n_atoms < 2**dim:
            raise InvalidInputError(
                f"a grid in {dim} dimensions needs at least {2**dim} atoms, "
                f"got {n_atoms}"
            )
        per_dim = int(round(n_atoms ** (1.0 / dim)))
        axis = np.linspace(0.0, v_max, per_dim)
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return cls.constant(pts, n_states, grid_axes=tuple([tuple(axis)] * dim))

    @classmethod
    def simplex_grid(cls, n_states: int, dim: int, resolution: int, scale: float = 1.0) -> "SupportMap":
        """All lattice points (k_1, ..., k_d)/resolution * scale with sum k = resolution.

        Covers the scaled probability simplex; (resolution+dim-1 choose dim-1)
        atoms.
        """
        if resolution < 1:
            raise InvalidInputError("simplex grid resolution must be >= 1")
        combos = itertools.combinations(range(resolution + dim - 1), dim - 1)
        pts = []
        for cut in combos:
            parts = []
            prev = -1
            for c in cut:
                parts.append(c - prev - 1)
                prev = c
            parts.append(resolution + dim - 2 - prev)
            pts.append(parts)
        arr = np.asarray(pts, dtype=np.float64) * (scale / resolution)
        return cls.constant(arr, n_states)

    @classmethod
    def random(cls, n_states: int, dim: int, n_atoms: int, v_max: float, rng) -> "SupportMap":
        """Per-state uniform draws in [0, v_max]^d, re-drawn if atoms collide."""
        if n_atoms < 1:
            raise InvalidInputError(f"a random support needs atoms, got {n_atoms}")
        per_state = []
        for _ in range(n_states):
            for _ in range(64):
                pts = rng.uniform(0.0, v_max, size=(n_atoms, dim))
                try:
                    _check_distinct(pts, "random support atoms")
                except InvalidInputError:
                    continue
                break
            per_state.append(pts)
        return cls(tuple(per_state))


def categorical(support: SupportMap, weights) -> ReturnDistFn:
    """Return-distribution function with given weights on a support map."""
    if len(weights) != support.n_states:
        raise InvalidInputError(
            f"{len(weights)} weight vectors for {support.n_states} states"
        )
    measures = []
    for x in range(support.n_states):
        measures.append(DiscreteMeasure(support[x], np.asarray(weights[x])))
    return ReturnDistFn(tuple(measures))


def weights_on_support(p: DiscreteMeasure, support_atoms: np.ndarray) -> np.ndarray:
    """Weight vector of ``p`` expressed on a support containing its atoms.

    Every atom of ``p`` must match a support atom within ``SUPPORT_GAP``;
    weights of coinciding atoms are accumulated. A support of another
    dimension raises ``InvalidInputError``.
    """
    dist = pairwise_semimetric(p.atoms, support_atoms, KernelSpec())
    nearest = np.argmin(dist, axis=1)
    if np.any(dist[np.arange(p.n_atoms), nearest] > SUPPORT_GAP):
        raise InvalidInputError("measure carries atoms outside the support")
    w = np.zeros(dist.shape[1])
    np.add.at(w, nearest, p.weights)
    return w
