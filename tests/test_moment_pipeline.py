import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import RowCounter, random_nested_projection
from mixcluster.mixture_gen import BASE_TAGS, BaseSampler, GenConfig, MixtureSampler, build_spec
from mixcluster.moment_pipeline import (
    MAX_DEGREE,
    STAGE_START,
    EmptySampleError,
    _half_word_floats,
    _half_word_tables,
    _halves_agree,
    MixtureSpec,
    NumericError,
    SizeLimitError,
    estimate_moment_matrix,
    identity_projection,
    iterative_projection,
    lead_positive,
    stage_matrix,
    top_k_subspace,
)
import mixcluster.nested_projection as npj
from mixcluster.nested_projection import NestedProjection, apply_rank1_batch
from mixcluster.oracles import apply_rank1, exact_moment_matrix, exact_projection_chain, prefix
from mixcluster.poincare_cluster import DifferenceSampler


# Reference for estimate_moment_matrix in its direct word-gather form: every
# one of the (2s)^s half-words of each block goes through (I_d kron Gamma) on
# its own, then the words are scattered onto their slot sets.
def _reference_half_word_tables(s: int):
    """Grouping tables for the degree-2s estimator.

    Returns (words, indicator, coeffs) where words is the ((2s)^s, s) array of
    half-words over sample slots [2s], indicator scatters each word onto the
    id of its slot set, and coeffs[a, b] is the signed weight of any labeled
    partition whose two halves cover slot sets a and b.
    """
    t = 2 * s
    words = np.array(list(itertools.product(range(t), repeat=s)), dtype=np.intp)
    subsets = []
    sub_id = {}
    for size in range(1, s + 1):
        for comb in itertools.combinations(range(t), size):
            sub_id[frozenset(comb)] = len(subsets)
            subsets.append(frozenset(comb))
    nsub = len(subsets)
    indicator = np.zeros((len(words), nsub))
    for i, w in enumerate(words):
        indicator[i, sub_id[frozenset(w.tolist())]] = 1.0
    coeffs = np.empty((nsub, nsub))
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            c = len(sa | sb)
            coeffs[a, b] = float(Fraction((-1) ** (c - 1), math.comb(t - 1, c - 1)))
    return words, indicator, coeffs


def _reference_kron_block_batch(np_: NestedProjection, factors: np.ndarray) -> np.ndarray:
    """Vectorized apply_kron_block on (n, s, d) blocks: factor 0 is the left
    (unprojected) factor, factors 1..s-1 feed the chain."""
    n, s, d = factors.shape
    if s - 1 != np_.stage_count:
        raise ValueError("expected one more factor than the chain has stages")
    left = factors[:, 0, :]
    if s == 1:
        return left.copy()
    w = apply_rank1_batch(np_, factors[:, 1:, :])
    return (left[:, :, None] * w[:, None, :]).reshape(n, -1)


def _reference_estimate_moment_matrix(
    mix_sampler, base_sampler, s: int, np_prev: NestedProjection, n: int
):
    """Monte-Carlo estimate of A_{2s} from n mixture samples, and the scale
    of the terms it sums.

    Each sample draws 4s-1 fresh base samples; the rank-1 expansion of
    R_{2s}(z_i, x_1..x_{4s-1}) is applied blockwise through (I kron Gamma)
    and averaged into a symmetric (d c_{s-1}) x (d c_{s-1}) matrix.  The
    scale is the mean over samples of each sample's |term|, entrywise: an
    estimate that cancels far below it is still only as exact as rounding
    at that scale allows.
    """
    if n < 1:
        raise EmptySampleError("estimate_moment_matrix needs n >= 1")
    if np_prev.stage_count != s - 1:
        raise ValueError(f"np_prev must have {s - 1} stages for degree 2s={2 * s}")
    d = np_prev.d
    out_dim = d * np_prev.out_dim
    words, indicator, coeffs = _reference_half_word_tables(s)
    n_words = len(words)
    acc = np.zeros((out_dim, out_dim))
    scale = np.zeros((out_dim, out_dim))
    chunk = max(1, min(n, 4_000_000 // max(1, n_words * out_dim)))
    done = 0
    while done < n:
        b = min(chunk, n - done)
        z = np.asarray(mix_sampler.draw(b), dtype=float)
        x = np.asarray(base_sampler.draw(b * (4 * s - 1)), dtype=float)
        x = x.reshape(b, 4 * s - 1, d)
        block0 = np.concatenate([z[:, None, :], x[:, : 2 * s - 1, :]], axis=1)
        block1 = x[:, 2 * s - 1 :, :]
        terms = np.zeros((b, out_dim, out_dim))
        for block, sign in ((block0, 1.0), (block1, -1.0)):
            f = block[:, words, :].reshape(b * n_words, s, d)
            v = _reference_kron_block_batch(np_prev, f).reshape(b, n_words, out_dim)
            grouped = np.einsum("bwm,wn->bnm", v, indicator, optimize=True)
            acc += sign * np.einsum(
                "bim,ij,bjn->mn", grouped, coeffs, grouped, optimize=True
            )
            terms += sign * np.einsum("bim,ij,bjn->bmn", grouped, coeffs, grouped, optimize=True)
        scale += np.abs(terms).sum(axis=0)
        done += b
    acc /= n
    return (acc + acc.T) / 2.0, scale / n


def _spec(weights, means, tag="gaussian"):
    return MixtureSpec(np.asarray(weights, float), np.asarray(means, float), tag)


def _reference_case(s, tag, d, seed):
    """A random chain of s - 1 stages over R^d and a mixture spec for it."""
    rng = np.random.default_rng(seed)
    widths = []
    for _ in range(s - 1):
        widths.append(int(rng.integers(1, min(d * (widths[-1] if widths else 1), 4) + 1)))
    np_prev = random_nested_projection(d, tuple(widths), rng)
    k = int(rng.integers(1, 4))
    spec = MixtureSpec(np.full(k, 1.0 / k), 3.0 * rng.standard_normal((k, d)), tag)
    return np_prev, spec


def _assert_matches_reference(got, reference):
    # entries that cancel to near zero are held to the scale of the summed
    # terms: a mean far below its terms is exact only up to their rounding
    want, scale = reference
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale.max())


class TestExactMomentMatrix:
    def test_single_component_rank_one(self, rng):
        mu = rng.standard_normal(3)
        m = exact_moment_matrix(_spec([1.0], [mu]), identity_projection(3))
        v = np.kron(mu, mu)
        assert np.allclose(m, np.outer(v, v))

    def test_orthogonal_means_eigenvalues(self):
        means = np.array([[2.0, 0.0], [0.0, 3.0]])
        weights = np.array([0.5, 0.5])
        # zero-stage chain (s=1): v_i = mu_i, so eigenvalues are w_i ||mu_i||^2
        m = exact_moment_matrix(_spec(weights, means), NestedProjection((), 2))
        vals = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(vals, [0.5 * 9.0, 0.5 * 4.0])

    def test_rank_at_most_k(self, rng):
        means = rng.standard_normal((3, 4))
        m = exact_moment_matrix(_spec(np.full(3, 1 / 3), means), identity_projection(4))
        assert np.linalg.matrix_rank(m, tol=1e-10) <= 3


# The per-vector loop that complement_basis, dimension_basis and
# top_k_subspace each carried before lead_positive, kept as its reference.
def _lead_positive_loop(rows):
    rows = rows.copy()
    for j in range(len(rows)):
        lead = np.argmax(np.abs(rows[j]))
        if rows[j, lead] < 0:
            rows[j] = -rows[j]
    return rows


class TestLeadPositive:
    # integer entries make tied magnitudes, zero rows and signed zeros common
    @given(
        n=hst.integers(0, 6),
        m=hst.integers(1, 6),
        data=hst.data(),
        transposed=hst.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference(self, n, m, data, transposed):
        entries = data.draw(hst.lists(hst.integers(-3, 3), min_size=n * m, max_size=n * m))
        rows = np.array(entries, dtype=float).reshape(n, m)
        want = _lead_positive_loop(rows)
        # a transposed view is flipped in place too, as complement_basis's is
        owner = rows.T.copy().T if transposed else rows.copy()
        got = lead_positive(owner)
        assert got is owner
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTopKSubspace:
    def test_diagonal(self):
        rows = top_k_subspace(np.diag([3.0, 2.0, 1.0]), 2)
        span = rows.T @ rows
        assert np.allclose(span, np.diag([1.0, 1.0, 0.0]))

    def test_rank_one_truncates(self, rng):
        v = rng.standard_normal(4)
        rows = top_k_subspace(np.outer(v, v), 2)
        assert rows.shape[0] == 1
        assert abs(abs(rows[0] @ v) - np.linalg.norm(v)) < 1e-9

    def test_deterministic_sign(self, rng):
        m = rng.standard_normal((5, 5))
        m = m + m.T
        a = top_k_subspace(m, 3)
        b = top_k_subspace(m.copy(), 3)
        assert np.array_equal(a, b)

    # integer entries make repeated and opposite-signed eigenvalues common
    @given(n=hst.integers(1, 6), k=hst.integers(1, 6), data=hst.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_in_non_increasing_abs_eigenvalue_order(self, n, k, data):
        entries = data.draw(hst.lists(hst.integers(-3, 3), min_size=n * n, max_size=n * n))
        m = np.array(entries, dtype=float).reshape(n, n)
        m = m + m.T
        rows = top_k_subspace(m, k)
        assert np.allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)
        # each row is an eigenvector, so its Rayleigh quotient is its eigenvalue
        gains = np.abs(np.einsum("ij,jk,ik->i", rows, m, rows))
        tol = 1e-9 * max(1.0, float(np.abs(m).max()))
        assert np.all(np.diff(gains) <= tol)
        top = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1][: len(rows)]
        assert np.allclose(gains, top, atol=tol)

    def test_capture_bound(self, rng):
        m = rng.standard_normal((20, 20))
        m = m + m.T
        rows = top_k_subspace(m, 5)
        proj = rows.T @ rows
        vals = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        residual = np.linalg.norm(m - proj @ m @ proj, 2)
        assert residual <= vals[5] + 1e-9


class TestEstimateMomentMatrix:
    def test_point_mass_single_component_exact(self, rng):
        mu = np.array([1.0, -2.0, 0.5])
        spec = _spec([1.0], [mu], "point_mass")
        mix = MixtureSampler(spec, seed=3)
        base = BaseSampler("point_mass", 3, 3, 5)
        est = estimate_moment_matrix(mix, base, 1, NestedProjection((), 3), 50)
        assert np.max(np.abs(est - np.outer(mu, mu))) < 1e-9

    def test_unbiased_within_four_se(self):
        means = np.array([[1.0, 0.0], [-0.5, 1.5]])
        spec = _spec([0.5, 0.5], means)
        # s=1 has no chain stages; s=2 runs the half-word grouping through one
        for s, np_prev in ((1, NestedProjection((), 2)), (2, identity_projection(2))):
            exact = exact_moment_matrix(spec, np_prev)
            runs = []
            for seed in range(8):
                mix = MixtureSampler(spec, seed=seed)
                base = BaseSampler("gaussian", 2, seed, 5)
                runs.append(estimate_moment_matrix(mix, base, s, np_prev, 4_000))
            runs = np.array(runs)
            mean = runs.mean(axis=0)
            se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
            assert np.all(np.abs(mean - exact) <= 4.0 * se + 1e-6), s

    def test_error_shrinks_with_n(self):
        means = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        spec = _spec([0.5, 0.5], means)
        exact = exact_moment_matrix(spec, NestedProjection((), 3))
        errs = []
        for n in (1_000, 16_000):
            mix = MixtureSampler(spec, seed=11)
            base = BaseSampler("gaussian", 3, 11, 5)
            est = estimate_moment_matrix(mix, base, 1, NestedProjection((), 3), n)
            errs.append(np.linalg.norm(est - exact))
        assert errs[1] < errs[0]

    def test_symmetrized(self):
        spec = _spec([1.0], [[1.0, 2.0]])
        mix = MixtureSampler(spec, seed=0)
        base = BaseSampler("gaussian", 2, 0, 5)
        m = estimate_moment_matrix(mix, base, 1, NestedProjection((), 2), 500)
        assert np.max(np.abs(m - m.T)) < 1e-12

    def test_non_finite_estimate_raises(self):
        class InfStream:
            d = 2

            def draw(self, n):
                return np.full((n, 2), np.inf)

        base = BaseSampler("gaussian", 2, 0, 5)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            estimate_moment_matrix(InfStream(), base, 1, NestedProjection((), 2), 10)


class TestEstimatorByGrouping:
    @given(
        s=hst.integers(1, 3),
        tag=hst.sampled_from(BASE_TAGS),
        d=hst.integers(1, 4),
        n=hst.integers(1, 30),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_word_gather_reference(self, s, tag, d, n, seed):
        np_prev, spec = _reference_case(s, tag, d, seed)
        got = estimate_moment_matrix(
            MixtureSampler(spec, seed), BaseSampler(tag, d, seed, 5), s, np_prev, n
        )
        want = _reference_estimate_moment_matrix(
            MixtureSampler(spec, seed), BaseSampler(tag, d, seed, 5), s, np_prev, n
        )
        _assert_matches_reference(got, want)

    @given(
        s=hst.integers(1, 3),
        tag=hst.sampled_from(BASE_TAGS),
        d=hst.integers(1, 4),
        chunk=hst.integers(2, 8),
        full=hst.integers(1, 4),
        rest=hst.integers(1, 7),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(s=1, tag="gaussian", d=3, chunk=5, full=2, rest=3, seed=0)
    # a 1x1 estimate that cancels 33,000-fold below its terms: two summation
    # orders differ by 2.3e-12 of it, 7e-17 of the terms' scale
    @example(s=2, tag="gaussian", d=1, chunk=8, full=2, rest=1, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_across_chunks(self, s, tag, d, chunk, full, rest, seed):
        # a working set of `chunk` samples makes the call span full + 1
        # chunks, the last one partial; at s = 1 the negative half is empty
        rest = 1 + (rest - 1) % (chunk - 1)
        n = full * chunk + rest
        np_prev, spec = _reference_case(s, tag, d, seed)
        folded = _half_word_tables(s)
        q, _, n_tails = folded[0].shape
        r = sum(f.shape[1] for f in folded)
        c, out_dim = np_prev.out_dim, d * np_prev.out_dim
        # the estimator's floats per sample
        per_sample = 2 * (q * d + n_tails * c + q * r * c + 2 * r * out_dim)
        mix = RowCounter(MixtureSampler(spec, seed))
        with mock.patch.object(npj, "WORKING_SET", chunk * per_sample):
            got = estimate_moment_matrix(mix, BaseSampler(tag, d, seed, 5), s, np_prev, n)
        assert mix.requests == [chunk] * full + [rest]
        want = _reference_estimate_moment_matrix(
            MixtureSampler(spec, seed), BaseSampler(tag, d, seed, 5), s, np_prev, n
        )
        _assert_matches_reference(got, want)


class TestFoldedTables:
    @pytest.mark.parametrize("s, rank", [(1, 1), (2, 5), (3, 19)])
    def test_fold_reproduces_coefficients(self, s, rank):
        # F+^T F+ - F-^T F- over each (j, u), (k, v) pair of half-words is
        # their entry of weights^T C weights; rank r splits as (r+, r-)
        split = {1: (1, 0), 2: (3, 2), 3: (10, 9)}[s]
        positive, negative = _half_word_tables(s)
        _, indicator, coeffs = _reference_half_word_tables(s)
        q = 2 * s
        weights = indicator.reshape(q, q ** (s - 1), -1).transpose(0, 2, 1)
        assert (positive.shape[1], negative.shape[1]) == split and sum(split) == rank
        assert positive.shape[::2] == negative.shape[::2] == (q, q ** (s - 1))
        got = np.einsum("jmu,kmv->jukv", positive, positive) - np.einsum("jmu,kmv->jukv", negative, negative)
        want = np.einsum("jau,ab,kbv->jukv", weights, coeffs, weights)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_float_count_is_the_grouping_table(self, s):
        _, indicator, _ = _reference_half_word_tables(s)
        assert _half_word_floats(s) == indicator.size

    def test_max_degree_is_the_largest_table_that_fits(self):
        assert _half_word_floats(MAX_DEGREE) <= npj.WORKING_SET < _half_word_floats(MAX_DEGREE + 1)
        assert (MAX_DEGREE, _half_word_floats(4), _half_word_floats(5)) == (4, 663_552, 63_700_000)

    def test_past_max_degree_raises_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                _half_word_tables(MAX_DEGREE + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestWorkingSet:
    @pytest.mark.parametrize("tag", ["gaussian", "laplace"])
    def test_chunk_does_not_change_the_estimate(self, monkeypatch, rng, tag):
        # every stream's rows are independent of the request sizes, so the
        # working set only decides how the sum is chunked: 42 and 677 samples
        # per chunk at the poincare-deg3 shape (d = 6, c = 4, s = 3)
        d, c, s, n = 6, 4, 3, 2_000
        spec = MixtureSpec(np.full(2, 0.5), np.array([[3.0] + [0.0] * (d - 1), [0.0] * d]), tag)
        chain = random_nested_projection(d, (d, c), rng)
        estimates = []
        for working_set in (1 << 17, 1 << 21):
            monkeypatch.setattr(npj, "WORKING_SET", working_set)
            mix = DifferenceSampler(MixtureSampler(spec, seed=4))
            base = DifferenceSampler(BaseSampler(tag, d, 4, 7))
            estimates.append(estimate_moment_matrix(mix, base, s, chain, n))
        a, b = estimates
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    # The draw schedule is pinned: the chunk decides the request sizes, the
    # peak memory and the summation order, so a chunk change can move the
    # estimate's last bits even though every stream's rows stay the same.
    @pytest.mark.parametrize(
        "d, widths, s, n, mixture_requests",
        [
            (6, (6, 4), 3, 20_000, [677] * 29 + [367]),  # poincare-deg3's second stage
            (4, (), 2, 5_000, [3855, 1145]),  # a C9 chain stage on a level stream
        ],
    )
    def test_draw_schedule_is_pinned(self, rng, d, widths, s, n, mixture_requests):
        spec = _spec([0.5, 0.5], [[3.0] + [0.0] * (d - 1), [0.0] * d])
        chain = random_nested_projection(d, widths, rng) if widths else identity_projection(d)
        mix = RowCounter(MixtureSampler(spec, seed=1))
        base = RowCounter(BaseSampler("gaussian", d, 1, 7))
        estimate_moment_matrix(mix, base, s, chain, n)
        assert mix.requests == mixture_requests
        assert base.requests == [(4 * s - 1) * b for b in mixture_requests]

    @pytest.mark.parametrize("widths, s", [((), 2), ((6, 4), 3)])
    def test_peak_memory_at_the_deg3_stages(self, rng, widths, s):
        # one estimate at each poincare-deg3 stage shape (d = 6, c = 6 then
        # 4, n = 20,000) stays under 8 WORKING_SET bytes (16 MiB)
        d = 6
        spec = _spec([0.5, 0.5], [[3.0] + [0.0] * (d - 1), [0.0] * d])
        chain = random_nested_projection(d, widths, rng) if widths else identity_projection(d)
        mix = DifferenceSampler(MixtureSampler(spec, seed=2))
        base = DifferenceSampler(BaseSampler("gaussian", d, 2, 7))
        _half_word_tables(s)  # built and cached outside the measured call
        tracemalloc.start()
        try:
            estimate_moment_matrix(mix, base, s, chain, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * npj.WORKING_SET


class TestIterativeProjection:
    def test_point_mass_single_component_exact_capture(self):
        mu = np.array([1.5, -1.0, 2.0])
        spec = _spec([1.0], [mu], "point_mass")
        mix = MixtureSampler(spec, seed=1)
        base = BaseSampler("point_mass", 3, 1, 5)
        chain = iterative_projection(mix, base, 3, 1, n_per_stage=40)
        for s in range(1, 4):
            np_s = prefix(chain, s)
            captured = np.linalg.norm(apply_rank1(np_s, [mu] * s))
            assert abs(captured - np.linalg.norm(mu) ** s) < 1e-6 * np.linalg.norm(mu) ** s

    def test_exact_oracle_monotone_capture(self, rng):
        for trial in range(3):
            means = rng.standard_normal((3, 3)) * 4.0
            spec = _spec(np.full(3, 1 / 3), means)
            chain = exact_projection_chain(spec, 3, 3)
            eps = 1e-8
            for mu in means:
                prev = np.linalg.norm(mu)
                for s in range(1, 4):
                    np_s = prefix(chain, s)
                    cur = np.linalg.norm(apply_rank1(np_s, [mu] * s))
                    if s > 1:
                        assert cur >= (1 - s * eps) * np.linalg.norm(mu) * prev
                    prev = cur

    def test_stages_row_orthonormal(self, rng):
        means = rng.standard_normal((2, 2)) * 3.0
        spec = _spec([0.5, 0.5], means)
        chain = exact_projection_chain(spec, 3, 2)
        for stage in chain.stages:
            gram = stage @ stage.T
            assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_past_max_degree_raises_before_any_draw(self):
        spec = _spec([1.0], [[1.0, 0.0]])
        mix = RowCounter(MixtureSampler(spec, seed=1))
        with pytest.raises(SizeLimitError):
            iterative_projection(mix, BaseSampler("gaussian", 2, 1, 5), MAX_DEGREE + 1, 1, n_per_stage=40)
        assert mix.rows == 0

    def test_stage_count_matches_request(self):
        spec = _spec([1.0], [[1.0, 0.0]])
        chain = exact_projection_chain(spec, 4, 1)
        assert chain.stage_count == 4


class TestStageMatrix:
    @given(cap=hst.integers(1, 5_000), k=hst.integers(1, 4), seed=hst.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_draws_a_doubling_count_up_to_the_cap(self, cap, k, seed):
        spec = _spec([0.5, 0.5], [[4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        mix = RowCounter(MixtureSampler(spec, seed=seed))
        stage_matrix(mix, BaseSampler("gaussian", 3, seed, 7), 2, identity_projection(3), k, cap)
        assert mix.rows <= cap
        assert mix.rows in {min(cap, STAGE_START * 2**j) for j in range(cap.bit_length() + 1)}

    @pytest.mark.parametrize("s, widths, cap", [(2, (), 3_000), (2, (), 2_048), (3, (3, 2), 1_500)])
    def test_merged_halves_are_one_estimate_over_the_same_rows(self, rng, s, widths, cap):
        # one component off the origin: each check resolves its mean's
        # direction (at s = 3 only once the mean is 1.5 times as long), but
        # the halves' top-1 subspaces still differ by more than STAGE_SLACK,
        # so the stage runs to the cap and the halves 512, 512, 1,024 and a
        # cut last one are all merged
        d = 3
        chain = random_nested_projection(d, widths, rng) if widths else identity_projection(d)
        spec = _spec([1.0], [{2: 1.0, 3: 1.5}[s] * np.array([1.0, -2.0, 0.5])])
        mix = RowCounter(MixtureSampler(spec, seed=4))
        got = stage_matrix(mix, BaseSampler("gaussian", d, 4, 7), s, chain, 2, cap)
        assert mix.rows == cap and len(mix.requests) > 1
        want = estimate_moment_matrix(MixtureSampler(spec, seed=4), BaseSampler("gaussian", d, 4, 7), s, chain, cap)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_a_one_component_stage_stops_at_its_first_check(self, d):
        # the difference mixture of one component is mean-free, so its
        # moment matrix is noise: the first two halves of 512 resolve no
        # direction, and the stage stops there, far under its cap
        spec = _spec([1.0], [np.full(d, 2.0)])
        mix = RowCounter(MixtureSampler(spec, seed=d))
        iterative_projection(DifferenceSampler(mix), BaseSampler("gaussian", d, d, 1), 2, 2, n_per_stage=5_000)
        assert mix.rows == 2 * 2 * STAGE_START

    @pytest.mark.parametrize("tag", ["gaussian", "laplace"])
    def test_c8_stage_stops_at_its_first_check(self, tag):
        # C8's chain: one stage, capped at 15,000 difference rows, settles on
        # its first two halves of 512 on every learner seed
        spec = build_spec(GenConfig(k=3, d=3, separation=12.0, dist_tag=tag, seed=7))
        for seed in range(20):
            mix = RowCounter(MixtureSampler(spec, seed=seed))
            iterative_projection(DifferenceSampler(mix), BaseSampler("gaussian", 3, seed, 1), 2, 3, n_per_stage=15_000)
            assert mix.rows == 2 * 1_024, f"seed {seed}"

    @pytest.mark.parametrize("cap", [1, 200, 400, STAGE_START])
    def test_a_cap_of_stage_start_or_less_is_one_estimate(self, cap):
        spec = _spec([0.5, 0.5], [[4.0, 0.0], [0.0, 0.0]])
        mix = RowCounter(MixtureSampler(spec, seed=6))
        got = stage_matrix(mix, BaseSampler("gaussian", 2, 6, 7), 2, identity_projection(2), 2, cap)
        assert mix.requests == [cap]
        want = estimate_moment_matrix(MixtureSampler(spec, seed=6), BaseSampler("gaussian", 2, 6, 7),
                                      2, identity_projection(2), cap)
        assert np.array_equal(got, want)


def _noise(n, scale, seed):
    """A symmetric n x n matrix of N(0, scale^2) entries."""
    g = np.random.default_rng(seed).normal(0.0, scale, (n, n))
    return (g + g.T) / np.sqrt(2.0)


class TestHalvesAgree:
    @pytest.mark.parametrize("seed", range(5))
    def test_a_pure_noise_pair_agrees(self, seed):
        # no |eigenvalue| of the merged noise stands above the halves'
        # difference, so no direction is resolved and more rows buy nothing
        a, b = _noise(6, 1.0, seed), _noise(6, 1.0, seed + 100)
        assert _halves_agree(a, b, 2)

    def test_a_strong_rank1_signal_is_judged_on_its_top_1_alone(self):
        # one direction of eigenvalue 100 over noise of scale 1: the halves
        # resolve it alone, so the noise directions that fill a top-4 do not count
        v = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 3.0])
        signal = 100.0 * np.outer(v, v) / (v @ v)
        a, b = signal + _noise(6, 1.0, 0), signal + _noise(6, 1.0, 1)
        assert _halves_agree(a, b, 4) and _halves_agree(a, b, 1)
        pi_a, pi_b = top_k_subspace(a, 4), top_k_subspace(b, 4)
        # the halves' top-4 subspaces themselves differ in their noise directions
        assert np.linalg.norm(pi_a.T @ pi_a - pi_b.T @ pi_b, 2) > 0.5

    def test_two_resolved_directions_that_swap_disagree(self):
        # both directions stand far above the halves' difference (merged
        # eigenvalues 9 and 9 against 2), but each half ranks the other first
        a, b = np.diag([10.0, 8.0, 0.0, 0.0]), np.diag([8.0, 10.0, 0.0, 0.0])
        assert not _halves_agree(a, b, 1)
        # with room for both, the halves' top-2 subspaces are the same
        assert _halves_agree(a, b, 2)
