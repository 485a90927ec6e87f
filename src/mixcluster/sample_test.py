"""The Far/Close sample test on projected rank-1 moment statistics.

A sample z is tested by averaging Gamma flat(R_t(z, y_0..y_{2t-2})) over
base draws and thresholding the norm of the average.  The tests of one call
share one set of draws (common random numbers): one call draws
reps * (2t-1) base rows, whatever its number of test points.  Each test's
draws stay independent of its own point and keep their distribution, so
each test's error probability is unchanged; only the tests within one call
become dependent, and each call gets fresh draws.

With the draws fixed, the average is a degree-t polynomial in z,
sum_{k<t} C_k z^(x)k + Gamma(z^(x)t).  Its coefficients are set up once per
call from reps * ((d+t-1)^t + t^t) word images (nested_projection.word_images,
the moment estimator's routine); each test point then costs
sum_{k<t} c_t d^k multiply-adds and one chain row, whatever reps is.
Threshold and degree policies follow the separation-driven forms; the
averaging count is a knob since the in-theory count is astronomically large.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import nested_projection
from .moment_pipeline import MAX_DEGREE, SizeLimitError
from .nested_projection import NestedProjection

DEFAULT_REPS = 64
DELTA = 0.05  # failure probability both learners size their tests for

ACCEPT = "Accept"
REJECT = "Reject"


class SeparationTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class TestConfig:
    t: int
    tau: float
    reps: int = DEFAULT_REPS

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class DegreeChoice:
    t: int
    capped: bool


def choose_threshold(sep: float, t: int) -> float:
    """tau = (0.2 * sep)^t."""
    if sep <= 0:
        raise ValueError("separation must be positive")
    return (0.2 * sep) ** t


def threshold_feasible(sep: float, t: int, k: int, delta: float) -> bool:
    """Gate predicate: the threshold clears the Close-side noise floor of a
    1-Poincare base."""
    return choose_threshold(sep, t) >= (20 * t) ** t * k / delta


def choose_degree(sep: float, k: int, w_star: float, delta: float, t_max: int = MAX_DEGREE) -> DegreeChoice:
    """Smallest t with (sep / ln K)^t >= K^10, K = k/(w* delta), capped at t_max."""
    big_k = k / (w_star * delta)
    log_k = math.log(big_k)
    if sep <= log_k:
        raise SeparationTooSmallError(
            f"separation {sep:.3g} must exceed ln(k/(w* delta)) = {log_k:.3g}"
        )
    base = sep / log_k
    t = max(1, math.ceil(10.0 * log_k / math.log(base)))
    if t > t_max:
        return DegreeChoice(t_max, True)
    return DegreeChoice(t, False)


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
    if t > MAX_DEGREE:
        raise SizeLimitError(f"degree {t} exceeds MAX_DEGREE = {MAX_DEGREE}")
    words = np.array(list(itertools.product(range(t), repeat=t)), dtype=np.intp)
    words = words.reshape(-1, t)
    coeffs = np.empty(len(words))
    for i, w in enumerate(words):
        c = len(set(w.tolist()))
        coeffs[i] = float(Fraction((-1) ** (c - 1), math.comb(t - 1, c - 1)))
    return words, coeffs


def _statistic_batch(zs: np.ndarray, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Averaged projected R_t statistics for a batch of test points.

    zs has shape (n, d); returns the n statistics ||A_i||.  One call draws
    cfg.reps blocks of 2t-1 base rows once, and every test point in the call
    shares them (common random numbers): each test's draws are independent
    of its own point, as the test needs, but not of the other tests'.

    With the draws fixed, A(z) = sum_{k<t} C_k z^(x)k + Gamma(z^(x)t) is a
    degree-t polynomial in z.  Gamma is linear, so C_k (d^k, c_t) is the
    reps-mean of the coefficient-weighted images of the block-0 words with z
    at k slots, with the standard basis of R^d put at those slots: one slice
    each of the word images over the pool [e_0..e_{d-1}, y_0..y_{t-2}].
    Block 1 holds no z and goes into C_0.  The all-z word has coefficient 1
    and is Gamma(z^(x)t).  Per call this costs reps * (2t-1) draws and
    reps * ((d+t-1)^t + t^t) word images; per test point,
    sum_{k<t} c_t d^k multiply-adds and one chain row.
    """
    t = cfg.t
    n, d = zs.shape
    reps = cfg.reps
    c = chain.out_dim
    q = d + t - 1
    draws = np.asarray(base_sampler.draw(reps * (2 * t - 1)), dtype=float)
    draws = draws.reshape(reps, 2 * t - 1, d)
    # a rep of either block holds at most 2 q^t c floats in word_images' widest stage
    chunk = max(1, nested_projection.WORKING_SET // (4 * q**t * max(chain.widths)))
    pool_sum = np.zeros((q**t, c))
    block1_sum = np.zeros((t**t, c))
    for start in range(0, reps, chunk):
        y = draws[start : start + chunk]
        pool = np.concatenate([np.broadcast_to(np.eye(d), (len(y), d, d)), y[:, : t - 1]], axis=1)
        pool_sum += nested_projection.word_images(chain, pool).sum(axis=0)
        block1_sum += nested_projection.word_images(chain, y[:, t - 1 :]).sum(axis=0)
    images = (pool_sum / reps).reshape((q,) * t + (c,))
    words, coeffs = r_expansion_arrays(t)
    poly = [np.zeros((d**k, c)) for k in range(t)]
    poly[0] -= coeffs @ block1_sum / reps
    for word, coeff in zip(words, coeffs):
        k = int(np.count_nonzero(word == 0))
        if k < t:
            at = tuple(slice(d) if j == 0 else d + j - 1 for j in word)
            poly[k] += coeff * images[at].reshape(d**k, c)
    # chunk over test points to bound z^(x)(t-1) and the chain row's intermediates
    per_row = d * max(t, *chain.widths)  # floats of a chain row's widest intermediate
    chunk = max(1, nested_projection.WORKING_SET // (2 * d ** (t - 1) + per_row))
    out = np.empty(n)
    for start in range(0, n, chunk):
        z = zs[start : start + chunk]
        m = len(z)
        a = nested_projection.apply_rank1_batch(chain, np.broadcast_to(z[:, None, :], (m, t, d))) + poly[0]
        power = z
        for k in range(1, t):
            a += power @ poly[k]
            if k < t - 1:
                power = (power[:, :, None] * z[:, None, :]).reshape(m, -1)
        out[start : start + m] = np.linalg.norm(a, axis=1)
    return out


def test_sample_batch(zs, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Vectorized Far/Close over rows of zs; returns a boolean Far mask.

    The rows share one set of reps * (2t-1) base draws.  Per call the
    statistic's coefficients cost reps * ((d+t-1)^t + t^t) word images; per
    row, sum_{k<t} c_t d^k multiply-adds and one chain row (see
    _statistic_batch)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    if chain.stage_count != cfg.t:
        raise ValueError(f"chain degree {chain.stage_count} != configured t {cfg.t}")
    if zs.ndim != 2 or zs.shape[1] != chain.d:
        raise ValueError(f"samples have shape {zs.shape}, expected (n, {chain.d})")
    stats = _statistic_batch(zs, chain, cfg, base_sampler)
    return stats >= cfg.tau


def pair_test(z, z_prime, chain: NestedProjection, cfg: TestConfig, base_sampler) -> str:
    """Accept iff the scaled difference tests Close under the difference chain."""
    return ACCEPT if pair_test_batch(z, z_prime, chain, cfg, base_sampler)[0] else REJECT


def pair_test_batch(z, others, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Accept mask of pair tests between one probe and many other samples.

    The call's pair tests share one set of reps * (2t-1) base draws.  The
    statistic's coefficients cost reps * ((d+t-1)^t + t^t) word images per
    call; each pair then costs sum_{k<t} c_t d^k multiply-adds and one chain
    row (see _statistic_batch)."""
    z = np.asarray(z, dtype=float)
    others = np.atleast_2d(np.asarray(others, dtype=float))
    diffs = (z[None, :] - others) / math.sqrt(2.0)
    return ~test_sample_batch(diffs, chain, cfg, base_sampler)
