import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mixcluster.nested_projection as npj
import mixcluster.sample_test as st
from conftest import RowCounter, grouped_tail_images, random_nested_projection
from mixcluster.mixture_gen import BASE_TAGS, BaseSampler, MixtureSampler
from mixcluster.moment_pipeline import MixtureSpec
from mixcluster.nested_projection import NestedProjection, apply_rank1_batch, word_images
from mixcluster.oracles import (
    adjusted_poly_recursive,
    base_moments,
    dense_matrix,
    exact_projection_chain,
    prefix,
    r_poly_terms,
)
from mixcluster.sample_test import r_expansion_arrays


# Reference for st._statistic_batch in its direct word-gather form: every one
# of the t^t words of every (test point, rep) row goes through the full chain,
# and the reps are averaged last.
def _reference_statistic_batch(zs: np.ndarray, np_: NestedProjection, cfg: st.TestConfig, base_sampler) -> np.ndarray:
    """Averaged projected R_t statistics for a batch of test points.

    zs has shape (n, d); returns the n statistics ||A_i||.  Each test point
    gets cfg.reps independent blocks of 2t-1 fresh base draws.
    """
    t = cfg.t
    n, d = zs.shape
    words, coeffs = r_expansion_arrays(t)
    n_words = len(words)
    reps = cfg.reps
    draws = np.asarray(base_sampler.draw(n * reps * (2 * t - 1)), dtype=float)
    draws = draws.reshape(n, reps, 2 * t - 1, d)
    block0 = np.concatenate(
        [np.broadcast_to(zs[:, None, None, :], (n, reps, 1, d)), draws[:, :, : t - 1, :]], axis=2
    )
    block1 = draws[:, :, t - 1 :, :]
    out = np.zeros((n, np_.out_dim))
    # chunk over (n, reps) rows to bound the (rows * n_words) working set
    rows = n * reps
    b0 = block0.reshape(rows, t, d)
    b1 = block1.reshape(rows, t, d)
    chunk = max(1, 2_000_000 // max(1, n_words * t))
    acc = np.zeros((rows, np_.out_dim))
    for start in range(0, rows, chunk):
        end = min(rows, start + chunk)
        for block, sign in ((b0[start:end], 1.0), (b1[start:end], -1.0)):
            m = end - start
            f = block[:, words, :].reshape(m * n_words, t, d)
            v = apply_rank1_batch(np_, f).reshape(m, n_words, np_.out_dim)
            acc[start:end] += sign * np.einsum("mwv,w->mv", v, coeffs, optimize=True)
    a = acc.reshape(n, reps, np_.out_dim).mean(axis=1)
    return np.linalg.norm(a, axis=1)


# Second reference, the statistic by linearity with shared draws: block 0 of
# every test point goes through the (t-1)-stage prefix chain once per rep, its
# tails grouped by first factor, and block 1 once per call.
def _reference_linearity_statistic_batch(zs: np.ndarray, proj: NestedProjection, cfg: st.TestConfig, base_sampler) -> np.ndarray:
    """Averaged projected R_t statistics for a batch of test points.

    zs has shape (n, d); returns the n statistics ||A_i||.  One call draws
    cfg.reps blocks of 2t-1 base rows once, and every test point in the call
    shares them (common random numbers): each test's draws are independent
    of its own point, as the test needs, but not of the other tests'.

    Gamma is linear and Gamma(v_1 x ... x v_t) = Pi_t(v_1 x Gamma_{t-1}(v_2..v_t)),
    so the t^t words of a block are grouped by their first factor j into
    sum_j b_j x T_j, where grouped_tail_images forms
    T_j = sum_u c_{j,u} Gamma_{t-1}(tail u).  Block 1 (y_{t-1}..y_{2t-2})
    holds no z, so its sum over the reps is formed once per call and
    subtracted from each point's block-0 (z, y_0..y_{t-2}) sum before the
    mean and Pi_t.  Per call this costs reps * (2t-1) draws and
    reps * t^(t-1) prefix-chain applications for block 1; per test point,
    reps * t^(t-1) prefix-chain applications for block 0 and one Pi_t
    application.
    """
    t = cfg.t
    n, d = zs.shape
    reps = cfg.reps
    draws = np.asarray(base_sampler.draw(reps * (2 * t - 1)), dtype=float)
    draws = draws.reshape(reps, 2 * t - 1, d)
    last = proj.stages[-1]
    if t == 1:
        return np.linalg.norm((zs - draws[:, 0, :].mean(axis=0)) @ last.T, axis=1)
    words, coeffs = r_expansion_arrays(t)
    n_tails = t ** (t - 1)
    tails = words[:n_tails, 1:]  # product order: word j * n_tails + u has tail u
    weights = coeffs.reshape(t, 1, n_tails)
    head = prefix(proj, t - 1)
    width = head.out_dim
    # block 1 (y_{t-1}..y_{2t-2}) holds no z: one sum over the reps serves every point
    block1 = draws[:, t - 1 :, :]
    grouped1 = grouped_tail_images(head, block1, tails, weights).reshape(reps * t, width)
    shared = block1.reshape(reps * t, d).T @ grouped1
    ys = draws[:, : t - 1, :]
    # chunk over test points (all reps of a point in one chunk) to bound
    # the gathered tails and the prefix chain's widest intermediate
    per_point = reps * n_tails * d * max(t - 1, *head.widths)
    chunk = max(1, npj.WORKING_SET // per_point)
    out = np.empty(n)
    for start in range(0, n, chunk):
        end = min(n, start + chunk)
        m = end - start
        blocks = np.concatenate(
            [
                np.broadcast_to(zs[start:end, None, None, :], (m, reps, 1, d)),
                np.broadcast_to(ys, (m, reps, t - 1, d)),
            ],
            axis=2,
        ).reshape(m * reps, t, d)
        grouped = grouped_tail_images(head, blocks, tails, weights).reshape(m, reps * t, width)
        acc = np.matmul(blocks.reshape(m, reps * t, d).transpose(0, 2, 1), grouped) - shared
        a = (acc.reshape(m, d * width) / reps) @ last.T
        out[start:end] = np.linalg.norm(a, axis=1)
    return out


class _TiledSampler:
    """Hands every test point of a reference call the same draws: a request
    for n * rows rows draws rows rows once and repeats them n times, which
    is what _statistic_batch's shared draws look like to the reference."""

    def __init__(self, inner, n):
        self.inner = inner
        self.n = n

    def draw(self, m):
        return np.tile(np.asarray(self.inner.draw(m // self.n)), (self.n, 1))


def _point_mass_chain(mu, t):
    spec = MixtureSpec(np.array([1.0]), np.array([mu]), "point_mass")
    return spec, exact_projection_chain(spec, t, 1)


class TestTestConfig:
    def test_fields_are_the_values_callers_vary(self):
        # a value no code reads has no field
        assert [f.name for f in dataclasses.fields(st.TestConfig)] == ["t", "tau", "reps"]

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_non_positive_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            st.TestConfig(2, tau)


class TestThresholdPolicy:
    def test_examples(self):
        assert st.choose_threshold(10.0, 2) == pytest.approx(4.0)
        assert st.choose_threshold(5.0, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("sep", [0.0, -1.0, math.nan])
    def test_non_positive_separation_rejected(self, sep):
        with pytest.raises(ValueError, match="separation must be positive"):
            st.choose_threshold(sep, 2)


def _statistic(z, chain, cfg, base):
    test = st.build_pair_test(chain, cfg, base)
    return float(st._statistic_batch(np.asarray(z, dtype=float)[None, None, :], test)[0, 0])


def _chain_draws(cfg, base):
    """The rows a chain's coefficient build reads: COEFF_BLOCKS * reps blocks
    of 2t-1 rows, in one request."""
    return base.draw(st.COEFF_BLOCKS * cfg.reps * (2 * cfg.t - 1))


def _is_far(z, chain, cfg, base):
    return bool(st.test_sample_batch(z, chain, cfg, base)[0])


class TestTestSample:
    def test_zero_sample_point_mass_is_close(self):
        mu = np.array([3.0, 0.0])
        spec, chain = _point_mass_chain(mu, 2)
        base = BaseSampler("point_mass", 2, 0, 1)
        cfg = st.TestConfig(2, tau=1.0, reps=4)
        assert not _is_far(np.zeros(2), chain, cfg, base)
        assert _statistic(np.zeros(2), chain, cfg, base) == pytest.approx(0.0, abs=1e-12)

    def test_mean_sample_point_mass_statistic_is_norm_power(self):
        mu = np.array([2.0, 1.0])
        spec, chain = _point_mass_chain(mu, 3)
        base = BaseSampler("point_mass", 2, 0, 1)
        cfg = st.TestConfig(3, tau=1.0, reps=2)
        assert _statistic(mu, chain, cfg, base) == pytest.approx(np.linalg.norm(mu) ** 3, rel=1e-9)
        assert _is_far(mu, chain, cfg, base)

    def test_scale_coupling(self):
        mu = np.array([1.0, -2.0])
        spec, chain = _point_mass_chain(mu, 2)
        base = BaseSampler("point_mass", 2, 0, 1)
        cfg = st.TestConfig(2, tau=1.0, reps=2)
        s1 = _statistic(mu, chain, cfg, base)
        s3 = _statistic(3.0 * mu, chain, cfg, base)
        assert s3 == pytest.approx(9.0 * s1, rel=1e-9)

    def test_monotone_in_tau(self):
        mu = np.array([2.0, 0.0])
        spec, chain = _point_mass_chain(mu, 2)
        base = BaseSampler("point_mass", 2, 0, 1)
        low = st.TestConfig(2, tau=1.0, reps=2)
        high = st.TestConfig(2, tau=1e6, reps=2)
        assert _is_far(mu, chain, low, base)
        assert not _is_far(mu, chain, high, base)

    def test_degree_mismatch_raises(self):
        spec, chain = _point_mass_chain(np.array([1.0, 0.0]), 2)
        base = BaseSampler("point_mass", 2, 0, 1)
        with pytest.raises(ValueError):
            st.test_sample_batch(np.zeros(2), chain, st.TestConfig(3, 1.0, reps=1), base)
        with pytest.raises(ValueError):
            st.test_sample_batch(np.zeros(3), chain, st.TestConfig(2, 1.0, reps=1), base)

    def test_deterministic_given_seed(self):
        spec = MixtureSpec(np.array([1.0]), np.array([[2.0, 0.0]]), "gaussian")
        chain = exact_projection_chain(spec, 2, 1)
        cfg = st.TestConfig(2, tau=1.0, reps=8)
        stats = [
            _statistic(np.array([2.0, 0.0]), chain, cfg, BaseSampler("gaussian", 2, 9, 1))
            for _ in range(2)
        ]
        assert stats[0] == stats[1]


class TestPairTest:
    def test_identical_samples_accept(self):
        spec, chain = _point_mass_chain(np.array([1.0, 0.0]), 2)
        base = BaseSampler("point_mass", 2, 0, 1)
        cfg = st.TestConfig(2, tau=0.5, reps=2)
        z = np.array([4.0, 4.0])
        assert st.pair_test(z, z, chain, cfg, base) is True

    def test_point_mass_cross_component_rejects(self):
        # noise-free difference chain over components at 0 and mu
        mu = np.array([6.0, 0.0])
        diff_spec = MixtureSpec(
            np.array([0.25, 0.5, 0.25]),
            np.array([mu / math.sqrt(2), [0.0, 0.0], -mu / math.sqrt(2)]),
            "point_mass",
        )
        chain = exact_projection_chain(diff_spec, 2, 3)
        base = BaseSampler("point_mass", 2, 0, 1)
        tau = st.choose_threshold(np.linalg.norm(mu), 2)
        cfg = st.TestConfig(2, tau=tau, reps=2)
        assert st.pair_test(mu, np.zeros(2), chain, cfg, base) is False
        assert st.pair_test(mu, mu, chain, cfg, base) is True

    def test_symmetry_of_sign_invariant_statistic(self):
        # with a noise-free base the statistic is ||Gamma flat(diff^(x)t)||,
        # which is invariant under negating the difference
        spec, chain = _point_mass_chain(np.array([2.0, 1.0]), 3)
        base = BaseSampler("point_mass", 2, 0, 1)
        cfg = st.TestConfig(3, tau=1.0, reps=2)
        z, zp = np.array([2.0, 1.0]), np.array([-1.0, 0.5])
        a = _statistic((z - zp) / math.sqrt(2), chain, cfg, base)
        b = _statistic((zp - z) / math.sqrt(2), chain, cfg, base)
        assert a == pytest.approx(b, rel=1e-12)

    def test_batch_matches_singletons(self):
        spec, chain = _point_mass_chain(np.array([3.0, 0.0]), 2)
        base = BaseSampler("point_mass", 2, 0, 1)
        cfg = st.TestConfig(2, tau=1.0, reps=2)
        z = np.array([3.0, 0.0])
        others = np.array([[3.0, 0.0], [0.0, 0.0], [3.0, 0.1]])
        mask = st.pair_test_batch(z, others, st.build_pair_test(chain, cfg, base))
        singles = [st.pair_test(z, o, chain, cfg, base) for o in others]
        assert list(mask) == singles


def _random_chain(d, t, rng):
    widths = []
    c_prev = 1
    for _ in range(t):
        c_prev = int(rng.integers(1, min(d * c_prev, 5) + 1))
        widths.append(c_prev)
    return random_nested_projection(d, widths, rng)


class TestStatisticByLinearity:
    @given(
        t=hst.integers(1, 4),
        tag=hst.sampled_from(BASE_TAGS),
        d=hst.integers(1, 4),
        n=hst.integers(1, 5),
        reps=hst.integers(1, 6),
        exact=hst.booleans(),
        far=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_both_references(self, t, tag, d, n, reps, exact, far, seed):
        rng = np.random.default_rng(seed)
        if exact:
            k = int(rng.integers(1, 4))
            spec = MixtureSpec(np.full(k, 1.0 / k), 3.0 * rng.standard_normal((k, d)), tag)
            chain = exact_projection_chain(spec, t, k)
        else:
            chain = _random_chain(d, t, rng)
        # Far-sized points sit ten times further out than Close-sized ones
        zs = (20.0 if far else 2.0) * rng.standard_normal((n, d))
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        got = st._statistic_batch(zs[None], st.build_pair_test(chain, cfg, BaseSampler(tag, d, seed, 5)))[0]
        # the references average the chain's one draw of COEFF_BLOCKS * reps blocks
        blocks = dataclasses.replace(cfg, reps=st.COEFF_BLOCKS * reps)
        gathered = _reference_statistic_batch(zs, chain, blocks, _TiledSampler(BaseSampler(tag, d, seed, 5), n))
        linear = _reference_linearity_statistic_batch(zs, chain, blocks, BaseSampler(tag, d, seed, 5))
        # relative to the size of the rank-1 terms, so that a statistic that
        # cancels to near zero is not held to a relative bound on itself
        draws = _chain_draws(cfg, BaseSampler(tag, d, seed, 5))
        size = max(np.abs(zs).max(), np.abs(draws).max(), 1.0) ** t
        np.testing.assert_allclose(got, gathered, rtol=1e-12, atol=1e-12 * size)
        np.testing.assert_allclose(got, linear, rtol=1e-12, atol=1e-12 * size)

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("tag", ["gaussian", "laplace"])
    def test_matches_dense_projection_of_r_expansion(self, t, tag):
        rng = np.random.default_rng(100 * t + len(tag))
        d, n, reps = 3, 3, 4
        chain = _random_chain(d, t, rng)
        zs = rng.standard_normal((n, d))
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        got = st._statistic_batch(zs[None], st.build_pair_test(chain, cfg, BaseSampler(tag, d, 11, 3)))[0]
        draws = _chain_draws(cfg, BaseSampler(tag, d, 11, 3)).reshape(-1, 2 * t - 1, d)
        gamma = dense_matrix(chain)
        want = [
            np.linalg.norm(np.mean([gamma @ r_poly_terms([z, *block], t).dense_sum().reshape(-1) for block in draws], axis=0))
            for z in zs
        ]
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestSharedDraws:
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 600])
    def test_one_call_draws_one_set_of_base_rows(self, t, n):
        # the chain's one build draws COEFF_BLOCKS * reps blocks in one
        # request; a pair test under it, of any size, draws none
        rng = np.random.default_rng(10 * t + n)
        d, reps = 3, 4
        chain = _random_chain(d, t, rng)
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        base = RowCounter(BaseSampler("gaussian", d, 3, 1))
        test = st.build_pair_test(chain, cfg, base)
        assert base.requests == [st.COEFF_BLOCKS * reps * (2 * t - 1)]
        z = rng.standard_normal(d)
        others = rng.standard_normal((n, d))
        mask = st.pair_test_batch(z, others, test)
        assert mask.shape == (n,)
        assert base.requests == [st.COEFF_BLOCKS * reps * (2 * t - 1)]

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("reps", [1, 4, 32])
    def test_one_chain_row_per_test_point(self, t, reps, monkeypatch):
        rows = []

        def counting(np_, factors):
            rows.append(len(factors))
            return apply_rank1_batch(np_, factors)

        monkeypatch.setattr(npj, "apply_rank1_batch", counting)
        rng = np.random.default_rng(10 * t + reps)
        d, n = 3, 50
        chain = _random_chain(d, t, rng)
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        test = st.build_pair_test(chain, cfg, BaseSampler("gaussian", d, 3, 1))
        # the build goes through word_images, so the chain rows are Gamma(z^(x)t) alone
        assert rows == []
        z = rng.standard_normal(d)
        others = rng.standard_normal((2 * n, d))
        counts = []
        for m in (n, 2 * n):
            rows.clear()
            st.pair_test_batch(z, others[:m], test)
            counts.append(sum(rows))
        assert counts == [n, 2 * n]

    @given(
        t=hst.integers(1, 4),
        tag=hst.sampled_from(BASE_TAGS),
        d=hst.integers(1, 4),
        n=hst.integers(2, 6),
        reps=hst.integers(1, 6),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_row_matches_single_point_call(self, t, tag, d, n, reps, seed):
        rng = np.random.default_rng(seed)
        chain = _random_chain(d, t, rng)
        zs = 2.0 * rng.standard_normal((n, d))
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        test = st.build_pair_test(chain, cfg, BaseSampler(tag, d, seed, 5))
        batch = st._statistic_batch(zs[None], test)[0]
        draws = _chain_draws(cfg, BaseSampler(tag, d, seed, 5))
        size = max(np.abs(zs).max(), np.abs(draws).max(), 1.0) ** t
        for i in range(n):
            single = st._statistic_batch(zs[None, i : i + 1], st.build_pair_test(chain, cfg, BaseSampler(tag, d, seed, 5)))[0]
            np.testing.assert_allclose(batch[i : i + 1], single, rtol=1e-12, atol=1e-12 * size)


class TestWorkingSet:
    @pytest.mark.parametrize("t, d, k, reps", [(2, 3, 3, 32), (3, 3, 3, 8), (3, 6, 4, 16)])
    def test_chunks_do_not_change_the_statistic(self, monkeypatch, t, d, k, reps):
        # 256 floats hold less than one block or one probe at each shape, so
        # the build images one block a chunk, two word_images calls each,
        # and every pass takes one probe, one chain call over its points;
        # the last shape is poincare-deg3's
        rng = np.random.default_rng(100 * t + d)
        chain = random_nested_projection(d, [k] * t, rng)
        probes, n = 5, 10
        zs = 3.0 * rng.standard_normal((probes, n, d))
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        want = st._statistic_batch(zs, st.build_pair_test(chain, cfg, BaseSampler("laplace", d, 5, 1)))
        # the reference: the chain's one draw averaged in one pass per block half
        draws = _chain_draws(cfg, BaseSampler("laplace", d, 5, 1))
        linear = _reference_linearity_statistic_batch(
            zs.reshape(-1, d), chain, dataclasses.replace(cfg, reps=st.COEFF_BLOCKS * reps), BaseSampler("laplace", d, 5, 1)
        )
        size = max(np.abs(zs).max(), np.abs(draws).max(), 1.0) ** t
        np.testing.assert_allclose(want.reshape(-1), linear, rtol=1e-12, atol=1e-12 * size)
        blocks, points = [], []

        def images(np_, pool):
            blocks.append(len(pool))
            return word_images(np_, pool)

        def rank1(np_, factors):
            points.append(len(factors))
            return apply_rank1_batch(np_, factors)

        monkeypatch.setattr(npj, "WORKING_SET", 256)
        monkeypatch.setattr(npj, "word_images", images)
        monkeypatch.setattr(npj, "apply_rank1_batch", rank1)
        got = st._statistic_batch(zs, st.build_pair_test(chain, cfg, BaseSampler("laplace", d, 5, 1)))
        assert blocks == [1] * (2 * st.COEFF_BLOCKS * reps)
        assert points == [n] * probes
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "probes, n, d, widths, reps",
        [
            (132, 300, 3, [3, 3], 32),  # poincare-c8's vote
            (60, 120, 6, [6, 4, 4], 16),  # poincare-deg3's vote
        ],
    )
    def test_peak_memory_at_the_vote_shapes(self, probes, n, d, widths, reps):
        # one evaluation over every probe of a vote stays under 2 WORKING_SET
        # bytes (4 MiB); the points and the pair test are built outside the
        # measured call
        rng = np.random.default_rng(len(widths))
        chain = random_nested_projection(d, widths, rng)
        zs = rng.standard_normal((probes, n, d))
        cfg = st.TestConfig(len(widths), tau=1.0, reps=reps)
        test = st.build_pair_test(chain, cfg, BaseSampler("gaussian", d, 1, 1))
        tracemalloc.start()
        try:
            st._statistic_batch(zs, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * npj.WORKING_SET

    @pytest.mark.parametrize(
        "d, widths, reps",
        [
            (6, [6, 4, 4], 16),  # poincare-deg3's chain: 256 blocks at t = 3
            (4, [4, 4], st.DEFAULT_REPS),  # a C9 group's chain: 1,024 blocks at d = 4
        ],
    )
    def test_peak_memory_of_the_coefficient_build(self, d, widths, reps):
        # a chain's coefficient build, its draws included, stays under
        # 2 WORKING_SET bytes (4 MiB) too
        chain = random_nested_projection(d, widths, np.random.default_rng(len(widths)))
        cfg = st.TestConfig(len(widths), tau=1.0, reps=reps)
        r_expansion_arrays(cfg.t)
        base = BaseSampler("gaussian", d, 1, 1)
        tracemalloc.start()
        try:
            st.build_pair_test(chain, cfg, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * npj.WORKING_SET


def _chunk_sizes(probes: int) -> list:
    """Pass sizes that split the probes into 2-4 passes, the last partial."""
    return [s for s in range(2, probes) if probes % s and -(-probes // s) <= 4]


class TestProbeAxis:
    @given(
        t=hst.integers(1, 3),
        probes=hst.integers(1, 6),
        tag=hst.sampled_from(BASE_TAGS),
        d=hst.integers(1, 4),
        m=hst.integers(1, 5),
        reps=hst.integers(1, 6),
        pick=hst.integers(0, 2),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_one_probe_calls(self, t, probes, tag, d, m, reps, pick, seed):
        rng = np.random.default_rng(seed)
        chain = _random_chain(d, t, rng)
        z = 2.0 * rng.standard_normal((probes, d))
        others = z.repeat(m, axis=0) + rng.standard_normal((probes * m, d))
        diffs = (z[:, None, :] - others.reshape(probes, m, d)) / math.sqrt(2.0)
        test = st.build_pair_test(chain, st.TestConfig(t, tau=1.0, reps=reps), BaseSampler(tag, d, seed, 5))
        singles = np.array([st._statistic_batch(diffs[p : p + 1], test)[0] for p in range(probes)])
        # a threshold between the statistics, so that the masks are mixed
        test = dataclasses.replace(test, cfg=dataclasses.replace(test.cfg, tau=float(np.median(singles)) * (1.0 + 1e-6) + 1e-300))
        single_masks = [st.pair_test_batch(z[p], others[p * m : (p + 1) * m], test) for p in range(probes)]
        sizes = _chunk_sizes(probes)
        passes, per_pass = [], probes
        if sizes:
            # passes that split the probes into 2-4 passes, the last partial
            per_pass = sizes[pick % len(sizes)]
            passes = [per_pass] * (probes // per_pass) + [probes % per_pass]
        rows = []

        def rank1(np_, factors):
            rows.append(len(factors))
            return apply_rank1_batch(np_, factors)

        def pass_rule(n, chain_):
            assert (n, chain_) == (m, chain)
            return per_pass

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(st, "probes_per_pass", pass_rule)
            mp.setattr(npj, "apply_rank1_batch", rank1)
            got = st._statistic_batch(diffs, test)
            mask = st.pair_test_batch(z, others, test)
        if passes:
            assert rows[: len(passes)] == [m * p for p in passes]
        size = max(np.abs(diffs).max(), 1.0) ** t
        np.testing.assert_allclose(got, singles, rtol=1e-12, atol=1e-12 * size)
        assert mask.shape == (probes * m,)
        np.testing.assert_array_equal(mask, np.concatenate(single_masks))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_one_base_request_per_call(self, t):
        # the entry points that take a base stream build the coefficients
        # from it, in one request, then evaluate them at every probe's points
        rng = np.random.default_rng(t)
        d, probes, m, reps = 3, 4, 6, 5
        chain = _random_chain(d, t, rng)
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        zs = rng.standard_normal((probes, m, d))
        base = RowCounter(BaseSampler("gaussian", d, 3, 1))
        mask = st.test_sample_batch(zs, chain, cfg, base)
        assert mask.shape == (probes, m)
        assert base.requests == [st.COEFF_BLOCKS * reps * (2 * t - 1)]
        want = st._statistic_batch(zs, st.build_pair_test(chain, cfg, BaseSampler("gaussian", d, 3, 1))) >= cfg.tau
        np.testing.assert_array_equal(mask, want)


class TestCoefficientLimit:
    @pytest.mark.parametrize("blocks", [1, 4, 16, 64, 256])
    def test_polynomial_tends_to_gamma_of_the_adjusted_polynomial(self, monkeypatch, blocks):
        # at t = 2 with a Gaussian base, one block's polynomial is
        # Gamma((z - y_0)^(x)2 - (y_1 - y_2)^(x)2), whose mean is
        # Gamma(P_2(z)) = Gamma(z^(x)2 - I), and whose error has
        # E||.||^2 <= 2(d+1)|z|^2 + 5d(d+1) (Gamma's rows are orthonormal):
        # so over N = blocks * reps blocks the error stays within four
        # standard errors sigma / sqrt(N)
        d, reps = 3, 4
        rng = np.random.default_rng(7)
        chain = random_nested_projection(d, [3, 4], rng)
        gamma = dense_matrix(chain)
        moments = base_moments("gaussian", 2, d)
        monkeypatch.setattr(st, "COEFF_BLOCKS", blocks)
        test = st.build_pair_test(chain, st.TestConfig(2, tau=1.0, reps=reps), BaseSampler("gaussian", d, blocks, 1))
        for z in 2.0 * rng.standard_normal((5, d)):
            got = test.coeffs[0][0] + z @ test.coeffs[1] + apply_rank1_batch(chain, np.array([[z, z]]))[0]
            want = gamma @ adjusted_poly_recursive(z, 2, moments).reshape(-1)
            sigma = math.sqrt(2 * (d + 1) * (z @ z) + 5 * d * (d + 1))
            assert np.linalg.norm(got - want) <= 4.0 * sigma / math.sqrt(blocks * reps)
