"""Tabular policy-conditioned MDP model and transition sampling.

Actions are folded into the policy-conditioned transition matrix; rewards
are deterministic per-state cumulant vectors in [0, r_max]^d.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, malformed_as_invalid, read_json

_ROW_TOL = 1e-9


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream id); same pair, same draws."""
    if seed < 0:
        raise InvalidInputError(f"seeds must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class TabularMDP:
    """Row-stochastic transition matrix, cumulant matrix, and discount."""

    transition: np.ndarray
    cumulants: np.ndarray
    gamma: float
    r_max: float = 1.0

    def __post_init__(self):
        p = np.array(self.transition, dtype=np.float64, copy=True)
        r = np.array(self.cumulants, dtype=np.float64, copy=True)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InvalidInputError(f"transition matrix must be square, got {p.shape}")
        if r.ndim == 1:
            r = r[:, None]
        if p.shape[0] < 1 or r.ndim != 2 or r.shape[0] != p.shape[0] or r.shape[1] < 1:
            raise InvalidInputError(
                f"need n_states, d >= 1 and (n_states, d) cumulants: {p.shape}, {r.shape}"
            )
        if (
            not np.all(np.isfinite(p))
            or np.any(p < 0.0)
            or np.any(np.abs(p.sum(axis=1) - 1.0) > _ROW_TOL)
        ):
            raise InvalidInputError(
                "transition rows must be finite, nonnegative and sum to 1"
            )
        if not 0.0 <= self.gamma < 1.0:
            raise InvalidInputError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not np.all((r >= 0.0) & (r <= self.r_max)):
            raise InvalidInputError(f"cumulants must lie in [0, {self.r_max}]")
        p.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "cumulants", r)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def dim(self) -> int:
        return self.cumulants.shape[1]

    @property
    def v_max(self) -> float:
        """Upper bound on every coordinate of the discounted return."""
        return self.r_max / (1.0 - self.gamma)

    @cached_property
    def _successors(self) -> "_InverseCdf":
        return _InverseCdf(self.transition)

    def to_json(self) -> dict:
        return {
            "n_states": self.n_states,
            "d": self.dim,
            "gamma": self.gamma,
            "r_max": self.r_max,
            "transition": self.transition.tolist(),
            "cumulants": self.cumulants.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TabularMDP":
        with malformed_as_invalid("MDP"):
            mdp = cls(
                np.asarray(payload["transition"], dtype=np.float64),
                np.asarray(payload["cumulants"], dtype=np.float64),
                float(payload["gamma"]),
                float(payload["r_max"]),
            )
            shape = (payload["n_states"], payload["d"])
        if (mdp.n_states, mdp.dim) != shape:
            raise InvalidInputError("serialized MDP shape fields do not match arrays")
        return mdp

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "TabularMDP":
        return cls.from_json(read_json(path, "MDP file"))


class _InverseCdf:
    """Inverse-CDF successor draws over the cumulative transition rows.

    A uniform draw ``u`` from state ``x`` selects the number of entries of
    the cumulative row ``x`` below ``u``, capped at ``n - 1`` because
    round-off can leave the last entry just under 1. Rows are
    nondecreasing (probabilities are nonnegative), so that count is a left
    bisection over the first ``n - 1`` entries, and the cap needs no
    comparison against the last entry. Every caller draws ``u`` itself, so
    the generator stream is the caller's to order.
    """

    def __init__(self, transition: np.ndarray):
        cum = np.cumsum(transition, axis=1)
        self._last = cum.shape[0] - 1
        self._rows = cum.tolist()
        self._cols = np.ascontiguousarray(cum[:, :-1].T)

    def one(self, state: int, u: float) -> int:
        """Successor of one state for one scalar draw."""
        return bisect.bisect_left(self._rows[state], u, 0, self._last)

    def many(self, states, u: np.ndarray) -> np.ndarray:
        """Successors for draws ``u`` from ``states`` (an index array
        aligned with ``u``, or one state for all draws)."""
        out = np.zeros(u.shape, dtype=np.int64)
        for col in self._cols:
            out += u > col[states]
        return out


@dataclass(frozen=True)
class Transition:
    """One observed step: state, its cumulant vector, sampled next state."""

    state: int
    reward: np.ndarray
    next_state: int


def random_mdp(
    n_states: int,
    d: int,
    gamma: float,
    dirichlet_concentration: float = 1.0,
    rng: np.random.Generator | None = None,
    r_max: float = 1.0,
) -> TabularMDP:
    """Random instance: Dirichlet transition rows, uniform cumulants."""
    if n_states < 1 or d < 1:
        raise InvalidInputError("need n_states >= 1 and d >= 1")
    if dirichlet_concentration <= 0.0:
        raise InvalidInputError("Dirichlet concentration must be positive")
    rng = rng if rng is not None else rng_stream(0)
    rows = rng.dirichlet(np.full(n_states, dirichlet_concentration), size=n_states)
    cumulants = rng.uniform(0.0, r_max, size=(n_states, d))
    return TabularMDP(rows, cumulants, gamma, r_max)


def dsm_mdp(transition, gamma: float) -> TabularMDP:
    """MDP whose returns are discounted state-occupancy distributions.

    Cumulants are (1 - gamma) times the state indicator, so every return
    vector lies on the probability simplex.
    """
    p = np.asarray(transition, dtype=np.float64)
    n = p.shape[0]
    return TabularMDP(p, (1.0 - gamma) * np.eye(n), gamma, r_max=1.0 - gamma)


def sample_transition(mdp: TabularMDP, state: int, rng: np.random.Generator) -> Transition:
    """Draw one transition from ``state``; the reward is deterministic."""
    if not 0 <= state < mdp.n_states:
        raise InvalidInputError(f"state {state} out of range")
    nxt = int(rng.choice(mdp.n_states, p=mdp.transition[state]))
    return Transition(state, mdp.cumulants[state], nxt)


def horizon_for_tail(mdp: TabularMDP, tail_tol: float) -> int:
    """Smallest horizon whose truncation error bound is below ``tail_tol``.

    The tail of the discounted sum is bounded by
    gamma^T * sqrt(d) * r_max / (1 - gamma).
    """
    if mdp.gamma == 0.0:
        return 1
    bound0 = math.sqrt(mdp.dim) * mdp.r_max / (1.0 - mdp.gamma)
    if bound0 <= tail_tol:
        return 1
    t = math.log(tail_tol / bound0) / math.log(mdp.gamma)
    return max(1, int(math.ceil(t)))


def rollout_return(mdp: TabularMDP, state: int, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Truncated discounted cumulant sum along one sampled trajectory."""
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    total = np.zeros(mdp.dim)
    x = state
    discount = 1.0
    for _ in range(horizon):
        total += discount * mdp.cumulants[x]
        discount *= mdp.gamma
        x = int(rng.choice(mdp.n_states, p=mdp.transition[x]))
    return total


def rollout_returns(
    mdp: TabularMDP, state: int, horizon: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` independent truncated returns from ``state``, one per row.

    Chains are advanced in lockstep with vectorized categorical draws.
    """
    if horizon < 1 or n < 1:
        raise InvalidInputError("need horizon >= 1 and n >= 1")
    successors = mdp._successors
    states = np.full(n, state, dtype=np.int64)
    total = np.zeros((n, mdp.dim))
    discount = 1.0
    for _ in range(horizon):
        # take is about 15x faster than a fancy row gather at d >= 2.
        total += discount * mdp.cumulants.take(states, axis=0)
        discount *= mdp.gamma
        states = successors.many(states, rng.random(n))
    return total


def successor_feature_means(mdp: TabularMDP) -> np.ndarray:
    """Analytic return means (I - gamma P)^-1 r, one row per state."""
    eye = np.eye(mdp.n_states)
    return np.linalg.solve(eye - mdp.gamma * mdp.transition, mdp.cumulants)
