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
call, in at most reps * ((d+t-1)^t - d^t + t^t) chain rows; each test
point then costs sum_{k<t} c_t d^k multiply-adds and one chain row,
whatever reps is.
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


@lru_cache(maxsize=None)
def _polynomial_tables(t: int, d: int):
    """Set-up tables of the statistic as a polynomial in the test point.

    The 2 t^t words of R_t run over the slots [z, y_0..y_{2t-2}]: block 0 as
    r_expansion_arrays gives it, block 1 shifted by t with -coeffs.  They are
    grouped by k, the number of positions that hold z; the all-z word (k = t)
    has coefficient 1 and is left out.  Each group k < t gets
    (index, coeffs): index[w, a, i] picks position i's factor of word w with
    e_{a_1}, .., e_{a_k} at its z positions, for every row-major multi-index
    a over [d]^k, out of the pool [e_0..e_{d-1}, y_0..y_{2t-2}].
    """
    words, coeffs = r_expansion_arrays(t)
    words = np.concatenate([words, words + t])
    coeffs = np.concatenate([coeffs, -coeffs])
    z_count = (words == 0).sum(axis=1)
    assert coeffs[z_count == t].tolist() == [1.0]
    tables = []
    for k in range(t):
        group = words[z_count == k]
        is_z = group == 0
        rank = np.cumsum(is_z, axis=1) - 1  # which z of its word a position holds
        digits = np.array(list(itertools.product(range(d), repeat=k)), dtype=np.intp)
        picks = (is_z[:, :, None] & (rank[:, :, None] == np.arange(k))).astype(np.intp)
        index = np.where(is_z, 0, d + group - 1)[:, None, :] + np.einsum("ak,wik->wai", digits, picks)
        tables.append((index, coeffs[z_count == k]))
    return tuple(tables)


def _statistic_batch(zs: np.ndarray, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Averaged projected R_t statistics for a batch of test points.

    zs has shape (n, d); returns the n statistics ||A_i||.  One call draws
    cfg.reps blocks of 2t-1 base rows once, and every test point in the call
    shares them (common random numbers): each test's draws are independent
    of its own point, as the test needs, but not of the other tests'.

    With the draws fixed, A(z) = sum_{k<t} C_k z^(x)k + Gamma(z^(x)t) is a
    degree-t polynomial in z.  Gamma is linear, so C_k (c_t, d^k) is the
    reps-mean of the coefficient-weighted images of the words with z at k
    positions, with the standard basis of R^d put at those positions; C_0
    holds block 1 and the z-free words of block 0.  The t(t-1) words with
    one y factor are linear in the draws and take their mean instead.  Per
    call this costs reps * (2t-1) draws and
    reps * ((d+t-1)^t - d^t + t^t) - (reps-1) * t(t-1) * d^(t-1) chain rows;
    per test point, sum_{k<t} c_t d^k multiply-adds and one chain row for
    Gamma(z^(x)t).  t = 1 is ||Pi_1(z - mean_r y_r)||.
    """
    t = cfg.t
    n, d = zs.shape
    reps = cfg.reps
    draws = np.asarray(base_sampler.draw(reps * (2 * t - 1)), dtype=float)
    draws = draws.reshape(reps, 2 * t - 1, d)
    if t == 1:
        return np.linalg.norm((zs - draws[:, 0, :].mean(axis=0)) @ chain.stages[-1].T, axis=1)
    c = chain.out_dim
    per_row = d * max(t, *chain.widths)  # floats of a chain row's widest intermediate
    pool = np.concatenate([np.broadcast_to(np.eye(d), (reps, d, d)), draws], axis=1)
    poly = []
    for k, (index, coeffs) in enumerate(_polynomial_tables(t, d)):
        # a word with one y factor (k = t-1) is linear in the draws, so the
        # mean of its images over the reps is the image of the mean draws
        pools = pool.mean(axis=0, keepdims=True) if k == t - 1 else pool
        # chain rows in (rep, word, a) order, chunked over whole (rep, word) groups
        n_groups = len(pools) * len(coeffs)
        chunk = max(1, nested_projection.WORKING_SET // (d**k * per_row))
        acc = np.zeros((d**k, c))
        for start in range(0, n_groups, chunk):
            rep, word = np.divmod(np.arange(start, min(n_groups, start + chunk)), len(coeffs))
            factors = pools[rep[:, None, None], index[word]].reshape(-1, t, d)
            images = nested_projection.apply_rank1_batch(chain, factors)
            acc += np.tensordot(coeffs[word], images.reshape(len(word), d**k, c), axes=1)
        poly.append(acc / len(pools))
    # chunk over test points to bound z^(x)(t-1) and the chain row's intermediates
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
    statistic's coefficients cost at most reps * ((d+t-1)^t - d^t + t^t)
    chain rows; per row, sum_{k<t} c_t d^k multiply-adds and one chain row
    (see _statistic_batch)."""
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
    statistic's coefficients cost at most reps * ((d+t-1)^t - d^t + t^t)
    chain rows per call; each pair then costs sum_{k<t} c_t d^k
    multiply-adds and one chain row (see _statistic_batch)."""
    z = np.asarray(z, dtype=float)
    others = np.atleast_2d(np.asarray(others, dtype=float))
    diffs = (z[None, :] - others) / math.sqrt(2.0)
    return ~test_sample_batch(diffs, chain, cfg, base_sampler)
