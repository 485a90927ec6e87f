import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.polynomial import hermite_e

from conftest import unordered_partitions
from mixcluster.mixture_gen import UnsupportedDistributionError
from mixcluster.oracles import (
    BaseMoments,
    adjusted_poly_recursive,
    base_moments,
    hermite_tensor,
    hermite_univariate,
    outer_power,
    place_blocks,
    r_poly_dense_oracle,
    r_poly_terms,
    sym_interleavings,
)


# Reference for adjusted_poly_recursive: the closed form of P_t.
def adjusted_poly_explicit(x, t: int, bm: BaseMoments) -> np.ndarray:
    """P_t(x) via the closed-form sum over subsets and unordered partitions.

    Terms are x on a subset S_0 tensored with base moments on a partition of
    the complement, weighted (-1)^C * C! over the C nonempty parts.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    out = np.zeros((d,) * t) if t > 0 else np.array(1.0)
    ground = range(t)
    for r in range(t + 1):
        xp = outer_power(x, r)
        for s0 in itertools.combinations(ground, r):
            rest = set(ground) - set(s0)
            for part in unordered_partitions(rest, t):
                c = len(part)
                coeff = (-1) ** c * math.factorial(c)
                pieces = [(s0, xp)]
                pieces += [(tuple(sorted(s)), bm.moment(len(s))) for s in part]
                out = out + coeff * place_blocks(t, d, pieces)
    return out


class TestBaseMoments:
    def test_gaussian_second_moment_is_identity(self):
        bm = base_moments("gaussian", 2, 2)
        assert np.allclose(bm.moment(2), np.eye(2))

    def test_gaussian_odd_moments_vanish(self):
        bm = base_moments("gaussian", 3, 2)
        assert np.allclose(bm.moment(1), 0.0)
        assert np.allclose(bm.moment(3), 0.0)

    def test_gaussian_univariate_fourth_moment(self):
        bm = base_moments("gaussian", 4, 1)
        assert np.allclose(bm.moment(4), 3.0)

    def test_point_mass_all_zero(self):
        bm = base_moments("point_mass", 4, 2)
        for j in range(1, 5):
            assert np.allclose(bm.moment(j), 0.0)

    def test_symmetry_under_axis_permutation(self, rng):
        bm = base_moments("laplace", 4, 3)
        m4 = bm.moment(4)
        assert np.allclose(m4, np.transpose(m4, (1, 0, 3, 2)))
        assert np.allclose(m4, np.transpose(m4, (3, 2, 1, 0)))

    def test_unknown_tag(self):
        with pytest.raises(UnsupportedDistributionError):
            base_moments("cauchy", 2, 2)


class TestAdjustedPolynomials:
    def test_degree_one_is_identity(self, rng):
        x = rng.standard_normal(3)
        bm = base_moments("laplace", 1, 3)
        assert np.allclose(adjusted_poly_recursive(x, 1, bm), x)

    def test_gaussian_degree_two(self, rng):
        x = rng.standard_normal(3)
        bm = base_moments("gaussian", 2, 3)
        assert np.allclose(adjusted_poly_recursive(x, 2, bm), np.outer(x, x) - np.eye(3))

    def test_point_mass_reduces_to_outer_power(self, rng):
        x = rng.standard_normal(2)
        bm = base_moments("point_mass", 3, 2)
        assert np.allclose(adjusted_poly_recursive(x, 3, bm), outer_power(x, 3))

    def test_gaussian_univariate_cubic(self):
        bm = base_moments("gaussian", 3, 1)
        x = np.array([1.7])
        assert np.allclose(adjusted_poly_recursive(x, 3, bm), 1.7**3 - 3 * 1.7)

    @pytest.mark.parametrize("dist_tag", ["gaussian", "laplace", "uniform_cube"])
    @pytest.mark.parametrize("t,d", [(1, 3), (2, 3), (3, 2), (4, 3)])
    def test_explicit_matches_recursive(self, dist_tag, t, d, rng):
        bm = base_moments(dist_tag, t, d)
        for _ in range(5):
            x = rng.standard_normal(d)
            got = adjusted_poly_explicit(x, t, bm)
            want = adjusted_poly_recursive(x, t, bm)
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_derivative_recursion(self, t, rng):
        # central difference of P_t along axis i vs the symmetrized
        # e_i (x) P_{t-1} insertion, O(h^2)
        d, h = 2, 1e-4
        bm = base_moments("laplace", t, d)
        bm_prev = base_moments("laplace", max(t - 1, 1), d)
        x = rng.standard_normal(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            plus = adjusted_poly_recursive(x + h * e, t, bm)
            minus = adjusted_poly_recursive(x - h * e, t, bm)
            diff = (plus - minus) / (2 * h)
            if t == 1:
                expected = e if np.isscalar(diff) or diff.shape == (d,) else None
                assert np.allclose(diff, e, atol=1e-6)
                continue
            p_prev = adjusted_poly_recursive(x, t - 1, bm_prev)
            expected = np.zeros((d,) * t)
            for pos in range(t):
                rest = tuple(q for q in range(t) if q != pos)
                expected = expected + place_blocks(t, d, [((pos,), e), (rest, p_prev)])
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(diff - expected)) / scale < 1e-5


class TestHermite:
    def test_h1_is_x(self, rng):
        x = rng.standard_normal(3)
        assert np.allclose(hermite_tensor(x, 1), x)

    def test_h2(self, rng):
        x = rng.standard_normal(3)
        assert np.allclose(hermite_tensor(x, 2), np.outer(x, x) - np.eye(3))

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_gaussian_adjusted(self, t, d, rng):
        bm = base_moments("gaussian", t, d)
        for _ in range(3):
            x = rng.standard_normal(d)
            assert np.max(np.abs(hermite_tensor(x, t) - adjusted_poly_recursive(x, t, bm))) < 1e-9

    def test_univariate_examples(self):
        assert hermite_univariate(5.0, 1) == 5.0
        assert hermite_univariate(0.0, 2) == -1.0
        assert hermite_univariate(2.0, 3) == 2.0

    @given(a=hst.floats(-8, 8), t=hst.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_univariate_matches_reference(self, a, t):
        coeffs = np.zeros(t + 1)
        coeffs[t] = 1.0
        want = hermite_e.hermeval(a, coeffs)
        got = hermite_univariate(a, t)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("t", range(1, 13))
    def test_roots_within_two_sqrt_t(self, t):
        coeffs = np.zeros(t + 1)
        coeffs[t] = 1.0
        roots = hermite_e.hermeroots(coeffs)
        assert np.max(np.abs(roots)) <= 2.0 * math.sqrt(t) + 1e-9

    def test_mean_recovers_tensor_power(self, rng):
        # E[h_t(mu + g)] = mu^(x)t for standard normal g
        mu = np.array([1.0, -0.5])
        t, n = 2, 60_000
        draws = mu + rng.standard_normal((n, 2))
        acc = np.zeros((2, 2))
        for z in draws:
            acc += hermite_tensor(z, t)
        acc /= n
        se = 4.0 * math.sqrt(math.factorial(t) * (np.dot(mu, mu) ** t + 1)) / math.sqrt(n)
        assert np.max(np.abs(acc - outer_power(mu, t))) < se + 0.05

    def test_orthogonality(self, rng):
        # E[flat h_t (x) flat h_t'] = 0 for t != t'
        n, d = 400_000, 2
        draws = rng.standard_normal((n, d))
        h1 = draws  # h_1 stacked
        h2 = np.einsum("ni,nj->nij", draws, draws).reshape(n, -1) - np.eye(d).reshape(-1)
        prod = np.einsum("ni,nj->ij", h1, h2) / n
        se = 5.0 * np.sqrt(np.einsum("ni,nj->ij", h1**2, h2**2) / n) / math.sqrt(n)
        assert np.all(np.abs(prod) <= se + 1e-3)


class TestLowerBoundKernel:
    @pytest.mark.parametrize("dist_tag", ["gaussian", "laplace"])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_far_inputs_give_large_pairing(self, dist_tag, t, rng):
        d = 2
        bm = base_moments(dist_tag, t, d)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        a = 200.0 * t
        x = a * v
        pairing = float(np.tensordot(adjusted_poly_recursive(x, t, bm), outer_power(v, t), t))
        assert pairing >= (0.9 * a) ** t


class TestRank1Expansion:
    def test_degree_one_terms(self, rng):
        x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
        exp = r_poly_terms([x1, x2], 1)
        assert len(exp.terms) == 2
        assert np.allclose(exp.dense_sum(), x1 - x2)

    def test_degree_two_term_count(self, rng):
        samples = list(rng.standard_normal((4, 2)))
        exp = r_poly_terms(samples, 2)
        assert len(exp.terms) == 8

    def test_point_mass_substitution(self, rng):
        # samples (mu, 0, ..., 0): only the all-first-sample word survives
        mu = rng.standard_normal(3)
        for t in (1, 2, 3):
            samples = [mu] + [np.zeros(3)] * (2 * t - 1)
            assert np.allclose(r_poly_terms(samples, t).dense_sum(), outer_power(mu, t))

    def test_wrong_sample_count(self):
        with pytest.raises(ValueError):
            r_poly_terms([np.zeros(2)] * 3, 2)

    @pytest.mark.parametrize("t,d", [(1, 2), (2, 3), (3, 2), (4, 2)])
    def test_matches_dense_oracle(self, t, d, rng):
        bm = base_moments("gaussian", t, d)
        for _ in range(5):
            samples = list(rng.standard_normal((2 * t, d)))
            lazy = r_poly_terms(samples, t).dense_sum()
            dense = r_poly_dense_oracle(samples, t, bm)
            assert np.max(np.abs(lazy - dense)) < 1e-9

    def test_degree_one_oracle(self, rng):
        bm = base_moments("gaussian", 1, 2)
        x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
        assert np.allclose(r_poly_dense_oracle([x1, x2], 1, bm), x1 - x2)

    def test_identical_samples_cancel(self, rng):
        bm = base_moments("gaussian", 2, 2)
        x = rng.standard_normal(2)
        assert np.allclose(r_poly_dense_oracle([x] * 4, 2, bm), 0.0)
        assert np.allclose(r_poly_terms([x] * 4, 2).dense_sum(), 0.0)
