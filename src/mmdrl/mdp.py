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

from .errors import (
    InvalidInputError,
    json_array,
    json_field,
    json_integer,
    json_real,
    malformed_as_invalid,
    read_json,
)

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
                json_array(payload["transition"], "MDP.transition"),
                json_array(payload["cumulants"], "MDP.cumulants"),
                json_field(payload, "gamma", json_real, "MDP"),
                json_field(payload, "r_max", json_real, "MDP"),
            )
            shape = tuple(json_field(payload, k, json_integer, "MDP") for k in ("n_states", "d"))
        if (mdp.n_states, mdp.dim) != shape:
            raise InvalidInputError("serialized MDP shape fields do not match arrays")
        return mdp

    def save(self, path) -> None:
        # json.dumps runs the C encoder; json.dump always takes the pure-Python
        # one. Both write the same bytes.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json()))

    @classmethod
    def load(cls, path) -> "TabularMDP":
        return cls.from_json(read_json(path, "MDP file"))


class _InverseCdf:
    """Exact inverse-CDF successor draws through a guide table (Devroye 1986,
    *Non-Uniform Random Variate Generation*, ch. III).

    A uniform draw ``u`` from state ``x`` selects the number of entries of
    the cumulative row ``x`` below ``u``, capped at ``n - 1`` because
    round-off can leave the last entry just under 1: only the first
    ``n - 1`` entries are counted. Every caller draws ``u`` itself, so the
    generator stream is the caller's to order.

    The vector form cuts [0, 1) into K buckets, K the smallest power of two
    of at least 16 n, so a draw's bucket q = floor(u K) is exact (u K only
    moves the exponent). Bucket K takes u = 1 and the round-off above it,
    so draws may lie anywhere in [0, 1 + 1/K). Entries below q / K count
    for every draw in bucket q. The table holds that count and, if bucket
    q holds exactly one entry c, that entry (else inf), so the successor
    is the count plus [u > c]. A bucket holding two or more entries stores
    -1 - count instead, and its draws are resolved by bisection over the
    row's entries. The two tables take 16 n (K + 1) bytes, under
    512 n^2 + 16 n: 10 KB at n = 5, 3.3 MB at n = 100. The scalar form
    bisects the row.
    """

    def __init__(self, transition: np.ndarray):
        cum = np.cumsum(transition, axis=1)
        n = cum.shape[0]
        self._last = n - 1
        self._rows = cum.tolist()
        size = self._size = 1 << (16 * n - 1).bit_length()
        entries = cum[:, :-1]
        # Per row and bucket: the entries in it, and those below it.
        slots = (entries * size).astype(np.int64)
        np.minimum(slots, size, out=slots)
        slots += np.arange(n)[:, None] * (size + 1)
        counts = np.bincount(slots.ravel(), minlength=n * (size + 1))
        counts = counts.reshape(n, size + 1)
        below = np.cumsum(counts, axis=1) - counts
        most = int(counts.max())
        # Bisection steps for buckets of two or more entries; the padding
        # keeps their probes inside the row.
        top = 1 << (most.bit_length() - 1) if most > 1 else 0
        self._steps = [1 << k for k in reversed(range(top.bit_length()))]
        self._stride = n - 1 + max(top, 1)
        padded = np.full((n, self._stride), np.inf)
        padded[:, : n - 1] = entries
        edge = np.take_along_axis(padded, below, axis=1)
        crowded = counts > 1
        edge[crowded] = np.inf
        self._edge = edge.ravel()
        self._base = np.where(crowded, -1 - below, below).ravel()
        self._entries = padded.ravel() if top else None

    def one(self, state: int, u: float) -> int:
        """Successor of one state for one scalar draw."""
        return bisect.bisect_left(self._rows[state], u, 0, self._last)

    def many(self, states, u: np.ndarray, out=None, work=None) -> np.ndarray:
        """Successors for draws ``u`` from ``states`` (an index array
        aligned with ``u``, or one state for all draws).

        ``out`` receives them and may be ``states`` itself. ``work`` is
        scratch shaped like ``u``: int64 bucket indices, floats and bools.
        Both are allocated when omitted.
        """
        if out is None:
            out = np.empty(u.shape, dtype=np.int64)
        if work is None:
            work = np.empty(u.shape, np.int64), np.empty(u.shape), np.empty(u.shape, bool)
        bucket, edge, above = work
        # Table index x (K + 1) + floor(u K): the cast truncates the exact u K.
        # Indices are in range, and mode "wrap" skips the buffered check
        # that "raise" makes with out=.
        np.multiply(u, self._size, out=bucket, casting="unsafe")
        bucket += np.multiply(states, self._size + 1, out=out)
        np.greater(u, self._edge.take(bucket, out=edge, mode="wrap"), out=above)
        np.add(self._base.take(bucket, out=out, mode="wrap"), above, out=out)
        if self._entries is not None:
            hit = np.flatnonzero(out < 0)
            if hit.size:
                # Count the crowded bucket's entries below u by bisection:
                # entries past the bucket, and the padding, are above u.
                rows = bucket[hit] // (self._size + 1) * self._stride
                found, v = -1 - out[hit], u[hit]
                for step in self._steps:
                    ahead = found + step
                    found = np.where(self._entries.take(rows + ahead - 1) < v, ahead, found)
                out[hit] = found
        return out


# Steps drawn per call of ``_uniform_states``: enough to spread numpy's
# overhead per call (about 0.03 us a step is left), few enough that the
# temporaries stay a few KB; 4096 measured a higher peak RSS.
_VISIT_BLOCK = 512


def _uniform_states(rng: np.random.Generator, n: int, count: int):
    """(states, uniforms) equal to what ``count`` alternating scalar calls
    ``rng.integers(n)`` and ``rng.random()`` return; the generator ends
    where those calls leave it.

    Each ``random()`` takes one 64-bit word. ``integers(n)`` takes one
    32-bit half: the low half of a fresh word, whose high half numpy
    buffers (``has_uint32``/``uinteger`` in the state) for the next such
    draw. So every third word, from word ``has_uint32``, feeds the
    integers, and the rest are the uniforms. The uniforms are numpy's own
    doubles of all the words; the integers follow Lemire's multiply-shift
    on the halves: (r n) >> 32, rejecting r when the low 32 bits of r n
    fall below (2^32 - n) mod n. On a rejection, which has probability
    below n / 2^32, the generator is rewound to the start of the block,
    re-advanced by the words of the draws before it, and numpy draws that
    step itself.
    """
    bitgen = rng.bit_generator
    if "has_uint32" not in bitgen.state:
        raise InvalidInputError(
            f"{type(bitgen).__name__} keeps no 32-bit buffer; use PCG64, "
            "PCG64DXSM, Philox or SFC64"
        )
    if not 1 <= n <= 2**32:
        raise InvalidInputError(f"need 1 <= n <= 2^32, got {n}")
    if n == 1:  # integers(1) draws nothing
        return np.zeros(count, dtype=np.int64), rng.random(count)
    threshold = (2**32 - n) % n
    states = np.empty(count, dtype=np.int64)
    uniforms = np.empty(count)
    done = 0
    while done < count:
        saved = bitgen.state
        has = saved["has_uint32"]
        k = count - done
        # j steps take j words for their uniforms and (j + 1 - has) // 2
        # fresh words for their integers.
        n_words = k + (k + 1 - has) // 2
        doubles = rng.random(n_words)
        bitgen.state = saved
        fresh_words = bitgen.random_raw(n_words)[has::3]
        high = fresh_words >> 32
        halves = np.empty(2 * fresh_words.size + has, dtype=np.uint64)
        halves[has::2] = fresh_words - (high << 32)
        halves[has + 1::2] = high
        if has:
            halves[0] = saved["uinteger"]
        product = halves[:k] * n
        draws = product >> 32
        # The low 32 bits of each product, compared through an int64 view
        # (exact, as they are below 2^32). uint64 `&` and `<` would run numpy
        # loops that nothing else in a run uses, each paging in 64 KB more.
        rejected = (product - (draws << 32)).view(np.int64) < threshold
        j = int(rejected.argmax()) if rejected.any() else k
        states[done:done + j] = draws[:j]
        uniforms[done:done + j] = np.delete(doubles, np.s_[has::3])[:j]
        # The buffer after j steps is full when j + has is odd, and holds
        # the high half of the last fresh word (numpy leaves it stale).
        fresh = (j + 1 - has) // 2
        if j < k:
            bitgen.state = saved
            if j:
                bitgen.random_raw(j + fresh)
        state = bitgen.state
        state["has_uint32"] = (j + has) % 2
        if fresh:
            state["uinteger"] = int(high[fresh - 1])
        bitgen.state = state
        if j < k:
            states[done + j] = rng.integers(n)
            uniforms[done + j] = rng.random()
        done += j + 1
    return states, uniforms


def sample_visits(mdp: "TabularMDP", steps: int, rng: np.random.Generator,
                  state_sampler: str = "uniform"):
    """Iterator over ``steps`` visited (state, successor) pairs.

    ``"uniform"`` draws each state with ``rng.integers(n_states)`` and its
    successor from the following ``rng.random()``; ``"trajectory"`` draws
    the first state the same way and then follows the chain, one
    ``rng.random()`` per step. Draws are taken in blocks, and the pairs
    and the generator's state are those of the scalar calls.
    """
    n = mdp.n_states
    successors = mdp._successors
    x = int(rng.integers(n)) if state_sampler == "trajectory" else 0
    for start in range(0, steps, _VISIT_BLOCK):
        count = min(_VISIT_BLOCK, steps - start)
        if state_sampler == "uniform":
            states, u = _uniform_states(rng, n, count)
            yield from zip(states.tolist(), successors.many(states, u).tolist())
            continue
        for u in rng.random(count).tolist():
            y = successors.one(x, u)
            yield x, y
            x = y


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


def rollout_returns(
    mdp: TabularMDP, state: int, horizon: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` independent truncated returns from ``state``, one per row.

    Chains are advanced in lockstep with vectorized categorical draws.
    """
    if horizon < 1 or n < 1:
        raise InvalidInputError("need horizon >= 1 and n >= 1")
    if not 0 <= state < mdp.n_states:
        raise InvalidInputError(f"state {state} out of range")
    successors = mdp._successors
    states = np.full(n, state, dtype=np.int64)
    total = np.zeros((n, mdp.dim))
    # Every step writes into these: the gathered rows, the draws and the
    # sampler's scratch, instead of allocating 80-160 KB arrays per step.
    # The rows are added to the total before the sampler runs, so their
    # first n floats can hold the sampler's gathered table entries.
    rows = np.empty((n, mdp.dim))
    u = np.empty(n)
    work = np.empty(n, dtype=np.int64), rows.reshape(-1)[:n], np.empty(n, dtype=bool)
    discount = 1.0
    for _ in range(horizon):
        # take is about 15x faster than a fancy row gather at d >= 2. Scaling
        # the (S, d) table before the gather scales S rows, not n.
        total += (discount * mdp.cumulants).take(states, axis=0, out=rows, mode="wrap")
        discount *= mdp.gamma
        successors.many(states, rng.random(out=u), out=states, work=work)
    return total


def successor_feature_means(mdp: TabularMDP) -> np.ndarray:
    """Analytic return means (I - gamma P)^-1 r, one row per state."""
    eye = np.eye(mdp.n_states)
    return np.linalg.solve(eye - mdp.gamma * mdp.transition, mdp.cumulants)
