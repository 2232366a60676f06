"""Inverse-CDF successor sampling: the shared sampler against the inline
rule it replaced, and seeded outputs at every call site."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmdrl.mdp as mdp_module
from mmdrl import (
    InvalidInputError,
    StepSchedule,
    SupportMap,
    TabularMDP,
    categorical_td_run,
    dsm_mdp,
    energy_kernel,
    ewp_td_run,
    random_mdp,
    rng_stream,
    rollout_returns,
)
from mmdrl.dp import ewp_init, ewp_random_step

from util import reference_rollout_returns


def inline_rule(cum_rows, states, u):
    """The successor rule each call site used to inline: the number of
    cumulative entries below u, capped at n - 1."""
    n = cum_rows.shape[0]
    return np.minimum(np.sum(u[:, None] > cum_rows[states], axis=1), n - 1)


class InlineSampler:
    """Drop-in for the shared sampler that evaluates ``inline_rule``."""

    def __init__(self, transition):
        self.cum_rows = np.cumsum(transition, axis=1)

    def one(self, state, u):
        return int(inline_rule(self.cum_rows, np.array([state]), np.array([u]))[0])

    def many(self, states, u):
        states = np.broadcast_to(np.asarray(states), u.shape)
        return inline_rule(self.cum_rows, states, u)


@st.composite
def transition_rows(draw):
    """Stochastic matrices with zero-probability columns (repeated
    cumulative values) and rows normalised two ways, so that the last
    cumulative entry lands on either side of 1 by round-off."""
    n = draw(st.integers(1, 7))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any),
            min_size=n,
            max_size=n,
        )
    )
    counts = np.array(counts, dtype=np.float64)
    totals = counts.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        return counts / totals
    return counts * (1.0 / totals)


@st.composite
def sampler_cases(draw):
    transition = draw(transition_rows())
    n = transition.shape[0]
    cum_rows = np.cumsum(transition, axis=1)
    k = draw(st.integers(1, 12))
    states = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    draws = []
    for x in states:
        kind = draw(st.sampled_from(("uniform", "on_entry", "above_entry", "top")))
        if kind == "uniform":
            draws.append(draw(st.floats(0.0, 1.0, exclude_max=True)))
        elif kind == "top":
            draws.append(float(np.nextafter(1.0, 0.0)))
        else:
            entry = float(cum_rows[x, draw(st.integers(0, n - 1))])
            draws.append(entry if kind == "on_entry" else float(np.nextafter(entry, 2.0)))
    return transition, states, np.array(draws)


SAMPLER_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


class TestSamplerMatchesInlineRule:
    @SAMPLER_SETTINGS
    @given(sampler_cases())
    def test_vector_and_scalar_forms(self, case):
        transition, states, u = case
        mdp = TabularMDP(transition, np.zeros((transition.shape[0], 1)), 0.5)
        expected = inline_rule(np.cumsum(mdp.transition, axis=1), states, u)
        sampler = mdp._successors
        np.testing.assert_array_equal(sampler.many(states, u), expected)
        scalar = [sampler.one(int(x), float(v)) for x, v in zip(states, u)]
        assert scalar == expected.tolist()
        for x in np.unique(states):
            sel = states == x
            np.testing.assert_array_equal(sampler.many(int(x), u[sel]), expected[sel])

    def test_last_entry_below_one_is_capped(self):
        # Rows may sum to 1 - 1e-10; draws above the sum go to the last state.
        transition = np.array([[0.5, 0.5 - 1e-10], [0.0, 1.0]])
        mdp = TabularMDP(transition, np.zeros((2, 1)), 0.5)
        u = np.array([1.0 - 5e-11, float(np.nextafter(1.0, 0.0)), 0.5, 0.25])
        assert np.all(u[:2] > np.cumsum(transition[0])[-1])
        np.testing.assert_array_equal(mdp._successors.many(0, u), [1, 1, 0, 0])
        assert [mdp._successors.one(0, float(v)) for v in u] == [1, 1, 0, 0]


def _guide_rows(n, rng):
    """Stochastic rows for the guide-table tests, one kind per row in turn:
    Dirichlet rows, rows with zero-probability columns (repeated entries,
    so buckets holding several equal entries), rows whose small
    probabilities put several distinct entries in one bucket, and rows
    summing to 1 +- 4e-10 (entries at or above 1, a last entry below it)."""
    rows = []
    for x in range(n):
        kind = x % 5
        if kind == 0:
            row = rng.dirichlet(np.full(n, 0.5))
        elif kind == 1:
            counts = rng.integers(0, 3, size=n) * (rng.random(n) < 0.3)
            counts[rng.integers(n)] += 1
            row = counts * (1.0 / counts.sum())
        elif kind == 2:
            row = np.full(n, 1e-7)
            row[rng.integers(n)] += 1.0 - n * 1e-7
        else:
            row = rng.dirichlet(np.ones(n))
            if n > 1:
                row[-1] = 0.0 if kind == 3 else row[-1]
                row /= row.sum()
                row[0] += 4e-10 if kind == 3 else -4e-10
        rows.append(row)
    return np.array(rows)


def _edge_draws(sampler, cum_row):
    """Draws on every bucket edge q/K (q = 0..K, so u = 1 too) and just
    below it, on every cumulative entry and one ulp either side of it,
    and a few uniform draws."""
    size = sampler._size
    edges = np.arange(size + 1) / size
    entries = cum_row[cum_row < 1.0 + 1.0 / size]
    return np.concatenate([
        edges, np.nextafter(edges[1:], 0.0), entries,
        np.nextafter(entries, -np.inf), np.nextafter(entries, np.inf),
        rng_stream(0).random(64),
    ])


class TestGuideTable:
    """The guide table gives the inline rule's successor for every draw in
    [0, 1], and for the round-off above 1 that bucket K covers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 100, 128])
    def test_every_bucket_edge_and_entry(self, n):
        rng = np.random.default_rng(n)
        transition = _guide_rows(n, rng)
        mdp = TabularMDP(transition, np.zeros((n, 1)), 0.5)
        sampler = mdp._successors
        cum_rows = np.cumsum(mdp.transition, axis=1)
        assert sampler._size >= 16 * n
        for x in range(n):
            u = _edge_draws(sampler, cum_rows[x])
            expected = inline_rule(cum_rows, np.full(u.size, x), u)
            np.testing.assert_array_equal(sampler.many(x, u), expected)
            states = np.full(u.size, x)
            np.testing.assert_array_equal(sampler.many(states, u, out=states), expected)
            assert [sampler.one(x, v) for v in u[::7].tolist()] == expected[::7].tolist()

    def test_crowded_buckets_are_resolved(self):
        # Rows with repeated entries and with entries closer than 1/K both
        # need the bisection path.
        rng = np.random.default_rng(7)
        transition = _guide_rows(40, rng)
        mdp = TabularMDP(transition, np.zeros((40, 1)), 0.5)
        sampler = mdp._successors
        assert sampler._entries is not None and len(sampler._steps) >= 2
        cum_rows = np.cumsum(mdp.transition, axis=1)
        states = rng.integers(0, 40, size=20000)
        u = rng.random(20000)
        u[::2] = cum_rows[states[::2], rng.integers(0, 39, size=10000)]
        buckets = states * (sampler._size + 1) + (u * sampler._size).astype(np.int64)
        assert np.count_nonzero(sampler._base[buckets] < 0) > 1000
        np.testing.assert_array_equal(sampler.many(states, u), inline_rule(cum_rows, states, u))

    def test_table_is_quadratic_in_states(self):
        # Two float64/int64 tables of n (K + 1) entries with 16 n <= K < 32 n.
        for n in (3, 5, 100):
            sampler = random_mdp(n, 1, 0.9, 1.0, rng_stream(n))._successors
            assert 16 * n <= sampler._size < 32 * n
            assert sampler._base.nbytes + sampler._edge.nbytes == 16 * n * (sampler._size + 1)

    def test_rollout_at_100_states_matches_references(self, monkeypatch):
        mdp = random_mdp(100, 2, 0.9, 1.0, rng_stream(3))
        got = rollout_returns(mdp, 7, 30, 3000, rng_stream(5))
        expected = reference_rollout_returns(mdp, 7, 30, 3000, rng_stream(5))
        assert got.tobytes() == expected.tobytes()
        inline = _with_inline_rule(
            monkeypatch, lambda: reference_rollout_returns(_fresh(mdp), 7, 30, 3000, rng_stream(5))
        )
        assert got.tobytes() == inline.tobytes()


def _mdps():
    """A random MDP and a hand-made one with zero-probability columns."""
    rows = np.array(
        [
            [0.5, 0.0, 0.5, 0.0],
            [0.1, 0.2, 0.3, 0.4],
            [0.0, 0.0, 0.0, 1.0],
            [1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0],
        ]
    )
    cumulants = np.array([[0.2], [0.9], [0.0], [0.5]])
    return [random_mdp(5, 1, 0.8, 0.5, rng_stream(3)), TabularMDP(rows, cumulants, 0.8)]


def _multi_dim_mdps():
    """A random d=2 MDP and a 3-state DSM MDP (d=3), where the cumulant
    rows are gathered as rows rather than as scalars."""
    rows = rng_stream(4).dirichlet(np.full(3, 0.5), size=3)
    return [random_mdp(5, 2, 0.8, 0.5, rng_stream(3)), dsm_mdp(rows, 0.8)]


def _fresh(mdp):
    """Copy of ``mdp`` whose sampler is built on first use."""
    return TabularMDP(mdp.transition, mdp.cumulants, mdp.gamma, mdp.r_max)


def _with_inline_rule(monkeypatch, fn):
    """Result of ``fn`` when every call site samples by ``inline_rule``."""
    with monkeypatch.context() as patch:
        patch.setattr(mdp_module, "_InverseCdf", InlineSampler)
        return fn()


@pytest.mark.parametrize("which", [0, 1])
class TestCallSitesMatchInlineRule:
    def test_rollout_returns(self, which):
        for mdp in (_mdps()[which], _multi_dim_mdps()[which]):
            got = rollout_returns(mdp, 1, 40, 500, rng_stream(5))
            # The body rollout_returns had with the rule inline.
            cum_rows = np.cumsum(mdp.transition, axis=1)
            rng = rng_stream(5)
            states = np.full(500, 1, dtype=np.int64)
            expected = np.zeros((500, mdp.dim))
            discount = 1.0
            for _ in range(40):
                expected += discount * mdp.cumulants[states]
                discount *= mdp.gamma
                states = inline_rule(cum_rows, states, rng.random(500))
            assert np.array_equal(got, expected)

    def test_ewp_random_step(self, which):
        mdp = _mdps()[which]
        m = 16
        eta = ewp_random_step(ewp_init(mdp, m), mdp, m, rng_stream(6))
        got = ewp_random_step(eta, mdp, m, rng_stream(7))
        # The body ewp_random_step had with the rule inline.
        particles = np.stack([eta[x].atoms for x in range(mdp.n_states)])
        cum_rows = np.cumsum(mdp.transition, axis=1)
        rng = rng_stream(7)
        for x in range(mdp.n_states):
            successors = inline_rule(cum_rows, np.full(m, x), rng.random(m))
            slots = rng.integers(0, m, size=m)
            z = particles[successors, slots, :]
            assert np.array_equal(got[x].atoms, mdp.cumulants[x] + mdp.gamma * z)

    @pytest.mark.parametrize("sampler", ["uniform", "trajectory"])
    def test_categorical_td_run(self, monkeypatch, which, sampler):
        mdp = _mdps()[which]
        support = SupportMap.uniform_grid(mdp.n_states, 1, 6, mdp.v_max)

        def run():
            return categorical_td_run(
                _fresh(mdp), support, energy_kernel(1.0), StepSchedule(0.6),
                600, rng_stream(8), state_sampler=sampler, report_interval=100,
            )

        state, _ = run()
        ref_state, _ = _with_inline_rule(monkeypatch, run)
        assert np.array_equal(state.visit_counts, ref_state.visit_counts)
        for x in range(mdp.n_states):
            assert np.array_equal(state.estimate[x].weights, ref_state.estimate[x].weights)
        if sampler == "trajectory":
            # Visits follow the sampled chain: replay its draws in order.
            cum_rows = np.cumsum(mdp.transition, axis=1)
            rng = rng_stream(8)
            x = int(rng.integers(mdp.n_states))
            visits = np.zeros(mdp.n_states, dtype=np.int64)
            for _ in range(600):
                y = int(inline_rule(cum_rows, np.array([x]), np.array([rng.random()]))[0])
                visits[x] += 1
                x = y
            assert np.array_equal(state.visit_counts, visits)

    def test_ewp_td_run(self, monkeypatch, which):
        mdp = _mdps()[which]

        def run():
            return ewp_td_run(
                _fresh(mdp), 4, energy_kernel(1.0), StepSchedule(0.6), 300,
                rng_stream(9), report_interval=100,
            )

        particles, _ = run()
        ref_particles, _ = _with_inline_rule(monkeypatch, run)
        assert np.array_equal(particles, ref_particles)


def _scalar_uniform_states(rng, n, count):
    """What ``mdp._uniform_states`` reproduces: alternating scalar calls."""
    states, uniforms = [], []
    for _ in range(count):
        states.append(int(rng.integers(n)))
        uniforms.append(rng.random())
    return np.array(states, dtype=np.int64), np.array(uniforms)


class TestUniformStates:
    # 3 * 2^30 and 2^31 + 1 reject a quarter and half of their draws, which
    # exercises the rewind; 2^32 - 5 is the largest case below 2^32.
    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 3 * 2**30, 2**31 + 1, 2**32 - 5])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_equals_scalar_calls(self, bit_generator, n, buffered):
        for count in (1, 2, 9, mdp_module._VISIT_BLOCK + 3):
            block, scalar = (np.random.Generator(bit_generator(31)) for _ in range(2))
            if buffered:  # leave the high half of a word in the 32-bit buffer
                block.integers(5)
                scalar.integers(5)
            assert block.bit_generator.state["has_uint32"] == buffered
            states, uniforms = mdp_module._uniform_states(block, n, count)
            expected_states, expected_uniforms = _scalar_uniform_states(scalar, n, count)
            assert np.array_equal(states, expected_states)
            assert np.array_equal(uniforms, expected_uniforms)
            assert str(block.bit_generator.state) == str(scalar.bit_generator.state)
            # The next draws match too, including the buffered half.
            tails = [
                [int(rng.integers(n)), rng.random(), int(rng.integers(9))]
                for rng in (block, scalar)
            ]
            assert tails[0] == tails[1]

    def test_mt19937_rejected(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(InvalidInputError, match="MT19937"):
            mdp_module._uniform_states(rng, 3, 5)
