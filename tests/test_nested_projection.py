import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import grouped_tail_images, random_nested_projection
from mixcluster.nested_projection import NestedProjection, apply_rank1_batch, identity_projection, word_images
from mixcluster.oracles import Rank1Term, apply_kron_block, apply_rank1, dense_matrix, prefix


def _flatten_rank1(factors):
    out = np.asarray(factors[0], dtype=float)
    for f in factors[1:]:
        out = np.tensordot(out, np.asarray(f, dtype=float), axes=0)
    return out.reshape(-1)


class TestConstruction:
    def test_identity_single_stage(self, rng):
        np_ = identity_projection(3)
        u = rng.standard_normal(3)
        assert np.allclose(apply_rank1(np_, [u]), u)

    def test_shape_chain_enforced(self):
        with pytest.raises(ValueError):
            NestedProjection((np.eye(3), np.eye(5)), 3)

    def test_drifted_stage_raises(self, rng):
        q = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        inner = NestedProjection((q,), 3)
        for drift in (1e-7, 1e-3):
            with pytest.raises(ValueError, match="stage 1 rows are not orthonormal"):
                NestedProjection((q * (1.0 + drift),), 3)
            with pytest.raises(ValueError, match="stage 2 rows are not orthonormal"):
                NestedProjection(inner.stages + (np.eye(2, 6) * (1.0 + drift),), 3)

    def test_prefix_and_widths(self, rng):
        np_ = random_nested_projection(3, (2, 2, 2), rng)
        assert np_.widths == (1, 2, 2, 2)
        assert prefix(np_, 2).stage_count == 2


class TestDenseOracle:
    def test_one_stage_is_the_stage(self, rng):
        np_ = random_nested_projection(4, (3,), rng)
        assert np.allclose(dense_matrix(np_), np_.stages[0])

    @pytest.mark.parametrize("d,widths", [(2, (2, 2)), (3, (2, 3, 2)), (4, (3, 3)), (2, (1, 2, 1))])
    def test_rows_orthonormal(self, d, widths, rng):
        gamma = dense_matrix(random_nested_projection(d, widths, rng))
        gram = gamma @ gamma.T
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    @pytest.mark.parametrize("d,widths", [(2, (2, 2)), (3, (3, 2, 3)), (5, (4, 4)), (10, (3,))])
    def test_apply_rank1_matches_dense(self, d, widths, rng):
        np_ = random_nested_projection(d, widths, rng)
        gamma = dense_matrix(np_)
        for _ in range(10):
            factors = [rng.standard_normal(d) for _ in widths]
            lazy = apply_rank1(np_, factors)
            dense = gamma @ _flatten_rank1(factors)
            assert np.max(np.abs(lazy - dense)) < 1e-10

    @pytest.mark.parametrize("d,widths", [(2, (2,)), (3, (2, 3))])
    def test_apply_kron_block_matches_dense(self, d, widths, rng):
        np_ = random_nested_projection(d, widths, rng)
        gamma = dense_matrix(np_)
        big = np.kron(np.eye(d), gamma)
        for _ in range(10):
            left = rng.standard_normal(d)
            tail = [rng.standard_normal(d) for _ in widths]
            lazy = apply_kron_block(np_, left, tail)
            dense = big @ _flatten_rank1([left] + tail)
            assert np.max(np.abs(lazy - dense)) < 1e-10

    def test_kron_block_empty_chain_returns_left(self, rng):
        np_ = NestedProjection((), 3)
        u = rng.standard_normal(3)
        assert np.allclose(apply_kron_block(np_, u, []), u)

    def test_kron_block_identity_is_flattened_outer(self, rng):
        np_ = identity_projection(2)
        u, w = rng.standard_normal(2), rng.standard_normal(2)
        got = apply_kron_block(np_, u, [w])
        assert got.shape == (4,)
        assert np.allclose(got, np.outer(u, w).reshape(-1))


class TestProperties:
    def test_symmetric_input_order_invariant(self, rng):
        np_ = random_nested_projection(3, (2, 2, 2), rng)
        mu = rng.standard_normal(3)
        assert np.allclose(apply_rank1(np_, [mu, mu, mu]), apply_rank1(np_, [mu] * 3))

    @given(seed=hst.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_norm_contraction(self, seed):
        r = np.random.default_rng(seed)
        np_ = random_nested_projection(3, (2, 2), r)
        factors = [r.standard_normal(3) * 3 for _ in range(2)]
        bound = np.prod([np.linalg.norm(f) for f in factors])
        assert np.linalg.norm(apply_rank1(np_, factors)) <= bound + 1e-9

    def test_linearity_over_expansions(self, rng):
        np_ = random_nested_projection(3, (2, 3), rng)
        terms = [
            Rank1Term(float(rng.standard_normal()), tuple(rng.standard_normal((2, 3))))
            for _ in range(5)
        ]
        summed = sum(t.coeff * apply_rank1(np_, t.factors) for t in terms)
        dense = dense_matrix(np_) @ sum(t.dense().reshape(-1) for t in terms)
        assert np.max(np.abs(summed - dense)) < 1e-9

    def test_batch_matches_single(self, rng):
        np_ = random_nested_projection(3, (2, 2), rng)
        factors = rng.standard_normal((7, 2, 3))
        batch = apply_rank1_batch(np_, factors)
        for i in range(7):
            assert np.allclose(batch[i], apply_rank1(np_, list(factors[i])))

    @pytest.mark.parametrize("widths", [(), (2,), (3, 2)])
    def test_grouped_tail_images_matches_word_loop(self, widths, rng):
        d, q, r, n = 3, 4, 2, 5
        np_ = random_nested_projection(d, widths, rng)
        blocks = rng.standard_normal((n, q, d))
        tails = rng.integers(0, q, size=(6, len(widths)))
        weights = rng.standard_normal((q, r, len(tails)))
        got = grouped_tail_images(np_, blocks, tails, weights)
        assert got.shape == (n, q, r, np_.out_dim)
        for i in range(n):
            images = [apply_rank1(np_, list(blocks[i, tail])) if len(widths) else np.ones(1) for tail in tails]
            want = np.einsum("jau,uc->jac", weights, np.array(images))
            assert np.max(np.abs(got[i] - want)) < 1e-12

    @given(
        length=hst.integers(0, 3),
        q=hst.integers(1, 6),
        d=hst.integers(1, 4),
        n=hst.integers(1, 4),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_images_match_rank1_per_word(self, length, q, d, n, seed):
        r = np.random.default_rng(seed)
        widths = []
        for _ in range(length):
            widths.append(int(r.integers(1, d * (widths[-1] if widths else 1) + 1)))
        np_ = random_nested_projection(d, tuple(widths), r)
        blocks = r.standard_normal((n, q, d))
        got = word_images(np_, blocks)
        words = list(itertools.product(range(q), repeat=length))
        assert got.shape == (n, len(words), np_.out_dim)
        for i in range(n):
            for w, word in enumerate(words):
                want = apply_rank1(np_, list(blocks[i, list(word)])) if length else np.ones(1)
                np.testing.assert_allclose(got[i, w], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
