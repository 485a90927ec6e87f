import numpy as np
import pytest

from mixcluster.mixture_gen import BaseSampler, MixtureSampler
from mixcluster.moment_pipeline import (
    MixtureSpec,
    estimate_moment_matrix,
    exact_moment_matrix,
    exact_projection_chain,
    identity_projection,
    iterative_projection,
    top_k_subspace,
)
from mixcluster.nested_projection import NestedProjection, apply_rank1


def _spec(weights, means, tag="gaussian"):
    return MixtureSpec(np.asarray(weights, float), np.asarray(means, float), tag)


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
        assert np.max(np.abs(est.matrix - np.outer(mu, mu))) < 1e-9

    def test_unbiased_within_four_se(self):
        means = np.array([[1.0, 0.0], [-0.5, 1.5]])
        spec = _spec([0.5, 0.5], means)
        exact = exact_moment_matrix(spec, NestedProjection((), 2))
        runs = []
        for seed in range(8):
            mix = MixtureSampler(spec, seed=seed)
            base = BaseSampler("gaussian", 2, seed, 5)
            runs.append(
                estimate_moment_matrix(mix, base, 1, NestedProjection((), 2), 4_000).matrix
            )
        runs = np.array(runs)
        mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(np.abs(mean - exact) <= 4.0 * se + 1e-6)

    def test_error_shrinks_with_n(self):
        means = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        spec = _spec([0.5, 0.5], means)
        exact = exact_moment_matrix(spec, NestedProjection((), 3))
        errs = []
        for n in (1_000, 16_000):
            mix = MixtureSampler(spec, seed=11)
            base = BaseSampler("gaussian", 3, 11, 5)
            est = estimate_moment_matrix(mix, base, 1, NestedProjection((), 3), n)
            errs.append(np.linalg.norm(est.matrix - exact))
        assert errs[1] < errs[0]

    def test_symmetrized(self):
        spec = _spec([1.0], [[1.0, 2.0]])
        mix = MixtureSampler(spec, seed=0)
        base = BaseSampler("gaussian", 2, 0, 5)
        m = estimate_moment_matrix(mix, base, 1, NestedProjection((), 2), 500).matrix
        assert np.max(np.abs(m - m.T)) < 1e-12


class TestIterativeProjection:
    def test_point_mass_single_component_exact_capture(self):
        mu = np.array([1.5, -1.0, 2.0])
        spec = _spec([1.0], [mu], "point_mass")
        mix = MixtureSampler(spec, seed=1)
        base = BaseSampler("point_mass", 3, 1, 5)
        chain = iterative_projection(mix, base, 3, 1, n_per_stage=40)
        for s in range(1, 4):
            np_s = chain.projection.prefix(s)
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
                    np_s = chain.projection.prefix(s)
                    cur = np.linalg.norm(apply_rank1(np_s, [mu] * s))
                    if s > 1:
                        assert cur >= (1 - s * eps) * np.linalg.norm(mu) * prev
                    prev = cur

    def test_stages_row_orthonormal(self, rng):
        means = rng.standard_normal((2, 2)) * 3.0
        spec = _spec([0.5, 0.5], means)
        chain = exact_projection_chain(spec, 3, 2)
        for stage in chain.projection.stages:
            gram = stage @ stage.T
            assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_stage_count_matches_request(self):
        spec = _spec([1.0], [[1.0, 0.0]])
        chain = exact_projection_chain(spec, 4, 1)
        assert chain.degree == 4
        assert chain.projection.stage_count == 4
