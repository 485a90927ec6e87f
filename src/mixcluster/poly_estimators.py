"""Adjusted polynomials, Hermite tensors, and the rank-1 moment estimator.

The dense evaluators here are oracles: they materialize d^t tensors and are
guarded accordingly.  The production path only ever touches the rank-1
expansion (r_expansion_arrays / r_poly_terms), whose term count is 2*t^t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .tensor_core import (
    DENSE_GUARD_T,
    Rank1Term,
    SizeLimitError,
    labeled_partitions,
    count_nonempty,
    outer_power,
    place_blocks,
    sym_interleavings,
)

BASE_TAGS = ("gaussian", "laplace", "uniform_cube", "point_mass")

# Coordinate scales making each product base 1-Poincare: a two-sided
# exponential with scale b has Poincare constant 4b^2, a centered uniform of
# width L has (L/pi)^2.
LAPLACE_SCALE = 0.5
UNIFORM_HALF_WIDTH = math.pi / 2.0

_BASE_GUARD_T = 6
_BASE_GUARD_D = 4


class UnsupportedDistributionError(ValueError):
    pass


def univariate_moment(dist_tag: str, j: int) -> float:
    """j-th raw moment of one coordinate of the normalized base distribution."""
    if j == 0:
        return 1.0
    if dist_tag == "point_mass":
        return 0.0
    if j % 2 == 1:
        return 0.0
    if dist_tag == "gaussian":
        return float(math.prod(range(1, j, 2)))  # (j-1)!!
    if dist_tag == "laplace":
        return float(math.factorial(j)) * LAPLACE_SCALE**j
    if dist_tag == "uniform_cube":
        return UNIFORM_HALF_WIDTH**j / (j + 1)
    raise UnsupportedDistributionError(f"unknown base distribution {dist_tag!r}")


@dataclass(frozen=True)
class BaseMoments:
    """Exact moment tensors D_1..D_t of a normalized base distribution."""

    dist_tag: str
    d: int
    moments: tuple  # moments[j-1] is the order-j dense tensor

    def moment(self, j: int) -> np.ndarray:
        if not 1 <= j <= len(self.moments):
            raise ValueError(f"moment order {j} not materialized")
        return self.moments[j - 1]


def _pair_partitions(t: int):
    """Perfect matchings of {0..t-1} (empty stream when t is odd)."""
    if t % 2 == 1:
        return
    if t == 0:
        yield ()
        return
    elems = list(range(t))

    def rec(remaining):
        if not remaining:
            yield ()
            return
        a = remaining[0]
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1 :]
            for tail in rec(rest):
                yield ((a, b),) + tail

    yield from rec(elems)


def _gaussian_moment_tensor(j: int, d: int) -> np.ndarray:
    """E[z^{tensor j}] for z ~ N(0, I_d) as a sum over pair partitions."""
    out = np.zeros((d,) * j) if j > 0 else np.array(1.0)
    eye = np.eye(d)
    for matching in _pair_partitions(j):
        out = out + place_blocks(j, d, [(pair, eye) for pair in matching])
    return out


def _product_moment_tensor(dist_tag: str, j: int, d: int) -> np.ndarray:
    """E[z^{tensor j}] for a product base: entries are products of univariate
    moments of the per-coordinate multiplicities."""
    out = np.zeros((d,) * j)
    for idx in itertools.product(range(d), repeat=j):
        counts = {}
        for i in idx:
            counts[i] = counts.get(i, 0) + 1
        out[idx] = math.prod(univariate_moment(dist_tag, m) for m in counts.values())
    return out


@lru_cache(maxsize=None)
def base_moments(dist_tag: str, t: int, d: int) -> BaseMoments:
    if dist_tag not in BASE_TAGS:
        raise UnsupportedDistributionError(f"unknown base distribution {dist_tag!r}")
    if t > _BASE_GUARD_T or d > _BASE_GUARD_D:
        raise SizeLimitError(f"base_moments guard: t <= {_BASE_GUARD_T}, d <= {_BASE_GUARD_D}")
    tensors = []
    for j in range(1, t + 1):
        if dist_tag == "gaussian":
            tensors.append(_gaussian_moment_tensor(j, d))
        elif dist_tag == "point_mass":
            tensors.append(np.zeros((d,) * j))
        else:
            tensors.append(_product_moment_tensor(dist_tag, j, d))
    return BaseMoments(dist_tag, d, tuple(tensors))


@lru_cache(maxsize=None)
def _split_positions(j: int, rest: int) -> tuple:
    """Every split of j + rest positions into a j-block and a rest-block."""
    return tuple(sym_interleavings((j, rest)))


def adjusted_poly_recursive(x, t: int, bm: BaseMoments) -> np.ndarray:
    """P_t(x) via the defining recursion P_t = x^{t} - sum_j Sym(D_j (x) P_{t-j})."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    polys = [np.array(1.0)]
    for s in range(1, t + 1):
        acc = outer_power(x, s)
        for j in range(1, s + 1):
            dj = bm.moment(j)
            lower = polys[s - j]
            for dj_pos, low_pos in _split_positions(j, s - j):
                acc = acc - place_blocks(s, d, [(dj_pos, dj), (low_pos, lower)])
        polys.append(acc)
    return polys[t]


def _singleton_pair_partitions(t: int):
    """Partitions of {0..t-1} into singletons and pairs: (singletons, pairs)."""

    def rec(remaining):
        if not remaining:
            yield ((), ())
            return
        a = remaining[0]
        for singles, pairs in rec(remaining[1:]):
            yield ((a,) + singles, pairs)
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1 :]
            for singles, pairs in rec(rest):
                yield (singles, ((a, b),) + pairs)

    yield from rec(tuple(range(t)))


def hermite_tensor(x, t: int) -> np.ndarray:
    """Hermite polynomial tensor h_t(x): sum over singleton/pair partitions,
    pairs contributing -I and singletons contributing x."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    out = np.zeros((d,) * t) if t > 0 else np.array(1.0)
    neg_eye = -np.eye(d)
    for singles, pairs in _singleton_pair_partitions(t):
        pieces = [((p,), x) for p in singles] + [(pair, neg_eye) for pair in pairs]
        if not pieces:
            out = out + 1.0
        else:
            out = out + place_blocks(t, d, pieces)
    return out


def hermite_univariate(a: float, t: int) -> float:
    """Probabilists' Hermite H_t(a) via H_t = a H_{t-1} - (t-1) H_{t-2}."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    prev, cur = 1.0, float(a)
    if t == 0:
        return prev
    for j in range(2, t + 1):
        prev, cur = cur, a * cur - (j - 1) * prev
    return cur


@dataclass(frozen=True)
class Rank1Expansion:
    terms: tuple  # of Rank1Term
    degree: int

    def dense_sum(self) -> np.ndarray:
        out = self.terms[0].dense() * 0.0
        for term in self.terms:
            out = out + term.dense()
        return out


@lru_cache(maxsize=None)
def r_expansion_arrays(t: int):
    """Vectorized form of the R_t expansion over one Q-block.

    Returns (words, coeffs): words is a (t^t, t) int array where row w gives,
    for each tensor position, which of the block's t samples supplies the
    factor; coeffs are the signed rational weights (+(-1)^(c-1)/binom(t-1,c-1))
    of the first block.  The second block uses -coeffs on samples t..2t-1.
    """
    if t < 1:
        raise ValueError("degree must be >= 1")
    if t > 8:
        raise SizeLimitError("rank-1 expansion guard: t <= 8")
    words = np.array(list(itertools.product(range(t), repeat=t)), dtype=np.intp)
    words = words.reshape(-1, t)
    coeffs = np.empty(len(words))
    for i, w in enumerate(words):
        c = len(set(w.tolist()))
        coeffs[i] = float(Fraction((-1) ** (c - 1), math.comb(t - 1, c - 1)))
    return words, coeffs


def r_poly_terms(samples, t: int) -> Rank1Expansion:
    """The 2*t^t-term rank-1 expansion of R_t over 2t fresh samples."""
    samples = [np.asarray(z, dtype=float) for z in samples]
    if len(samples) != 2 * t:
        raise ValueError(f"R_{t} needs exactly {2 * t} samples, got {len(samples)}")
    words, coeffs = r_expansion_arrays(t)
    terms = []
    for w, coeff in zip(words, coeffs):
        terms.append(Rank1Term(float(coeff), tuple(samples[j] for j in w)))
        terms.append(Rank1Term(-float(coeff), tuple(samples[t + j] for j in w)))
    return Rank1Expansion(tuple(terms), t)


@lru_cache(maxsize=None)
def _q_partitions(t: int) -> tuple:
    """Per labeled partition of {0..t-1}: its coefficient (-1)^C / binom(t-1, C-1)
    and, per nonempty slot j, (j, the slot's sorted positions)."""
    out = []
    for parts in labeled_partitions(t):
        c = count_nonempty(parts)
        coeff = float(Fraction((-1) ** c, math.comb(t - 1, c - 1)))
        out.append((coeff, tuple((j, tuple(sorted(s))) for j, s in enumerate(parts) if s)))
    return tuple(out)


def _q_poly_dense(xs, t: int, bm: BaseMoments) -> np.ndarray:
    """Dense Q_t(x_1..x_t): sum over labeled partitions of adjusted-polynomial
    factors with coefficients (-1)^C / binom(t-1, C-1)."""
    d = xs[0].shape[0]
    out = np.zeros((d,) * t)
    cache = {}

    def p_of(j, order):
        key = (j, order)
        if key not in cache:
            cache[key] = adjusted_poly_recursive(xs[j], order, bm)
        return cache[key]

    for coeff, slots in _q_partitions(t):
        pieces = [(positions, p_of(j, len(positions))) for j, positions in slots]
        out = out + coeff * place_blocks(t, d, pieces)
    return out


def r_poly_dense_oracle(samples, t: int, bm: BaseMoments) -> np.ndarray:
    """Ground-truth dense R_t = -Q_t(first block) + Q_t(second block)."""
    if t > 4 or bm.d > 3:
        raise SizeLimitError("dense oracle guard: t <= 4, d <= 3")
    samples = [np.asarray(z, dtype=float) for z in samples]
    if len(samples) != 2 * t:
        raise ValueError(f"R_{t} needs exactly {2 * t} samples, got {len(samples)}")
    return -_q_poly_dense(samples[:t], t, bm) + _q_poly_dense(samples[t:], t, bm)
