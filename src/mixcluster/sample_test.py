"""The Far/Close sample test on projected rank-1 moment statistics.

A sample z is tested by averaging Gamma flat(R_t(z, y_0..y_{2t-2})) over
base draws and thresholding the norm of the average.  A probe's tests share
one set of draws (common random numbers): a probe draws reps * (2t-1) base
rows, whatever its number of test points.  Each test's draws stay
independent of its own point and keep their distribution, so each test's
error probability is unchanged; only the tests within one probe become
dependent, and each probe gets fresh draws.  One call tests P probes in one
pass over a leading probe axis, with one base request of P * reps * (2t-1)
rows that hands probe p the rows P one-probe calls in a row would read.

With the draws fixed, the average is a degree-t polynomial in z,
sum_{k<t} C_k z^(x)k + Gamma(z^(x)t).  Its coefficients are set up once per
probe from reps * ((d+t-1)^t + t^t) word images (nested_projection.word_images,
the moment estimator's routine), all of a pass's probes in one word_images
call; each test point then costs sum_{k<t} c_t d^k multiply-adds and one
chain row, whatever reps is.
The threshold follows the separation-driven form (0.2 sep)^t
(:func:`choose_threshold`), set once per learner call: the Poincare learner
reads ``sep`` from its caller, and the recursive learner reads each
bounded-spread group's spacing (``gaussian_cluster.GroupScales.pair``), so
every test in a group has one threshold.  Both learners test at one degree,
``PAIR_DEGREE``, and the averaging count is a knob since the in-theory count
is astronomically large.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nested_projection
from .moment_pipeline import MAX_DEGREE, SizeLimitError, partition_coeff
from .nested_projection import NestedProjection

PAIR_DEGREE = 2  # pair-test degree t of both learners
DEFAULT_REPS = 64
DELTA = 0.05  # failure probability the Poincare vote's probe count is sized for


@dataclass(frozen=True)
class TestConfig:
    t: int
    tau: float
    reps: int = DEFAULT_REPS

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        # not x > 0 also rejects NaN
        if not self.tau > 0:
            raise ValueError("tau must be positive")


def choose_threshold(sep: float, t: int) -> float:
    """tau = (0.2 * sep)^t."""
    if not sep > 0:
        raise ValueError("separation must be positive")
    return (0.2 * sep) ** t


@lru_cache(maxsize=None)
def r_expansion_arrays(t: int):
    """Vectorized form of the R_t expansion over one Q-block.

    Returns (words, coeffs): words is a (t^t, t) int array where row w gives,
    for each tensor position, which of the block's t samples supplies the
    factor; coeffs are the signed rational weights (+(-1)^(c-1)/binom(t-1,c-1))
    of the first block (:func:`partition_coeff`).  The second block uses -coeffs on samples t..2t-1.
    """
    if t < 1:
        raise ValueError("degree must be >= 1")
    if t > MAX_DEGREE:
        raise SizeLimitError(f"degree {t} exceeds MAX_DEGREE = {MAX_DEGREE}")
    words = np.array(list(itertools.product(range(t), repeat=t)), dtype=np.intp)
    words = words.reshape(-1, t)
    coeffs = np.array([partition_coeff(t, len(set(w.tolist()))) for w in words])
    return words, coeffs


def probes_per_pass(n: int, chain: NestedProjection, reps: int) -> int:
    """Probes of n test points each that one pass of the statistic takes:
    as many as keep the pass's largest intermediates within WORKING_SET / 8
    floats, and at least one.  Per rep a probe holds the last images, their
    product with Pi_l and the new images at word_images' widest stage; per
    point, z^(x)(t-1) twice and a chain row's widest intermediate.  The
    probe vote draws and tests its probes in passes of this size."""
    d, t, widths = chain.d, chain.stage_count, chain.widths
    q = d + t - 1
    per_rep = max(q ** (l - 1) * (widths[l - 1] + d * widths[l]) + q**l * widths[l] for l in range(1, t + 1))
    floats = reps * per_rep + n * (2 * d ** (t - 1) + d * max(t, *widths))
    return max(1, nested_projection.WORKING_SET // (8 * floats))


def _statistic_batch(zs: np.ndarray, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Averaged projected R_t statistics for P probes' test points.

    zs has shape (P, n, d); returns the (P, n) statistics ||A_pi||.  The
    call draws P * cfg.reps blocks of 2t-1 base rows in one request, and
    probe p reads the p-th run of cfg.reps blocks: the rows P one-probe
    calls in a row would read from a plain stream.  Every test point of a
    probe shares its probe's draws (common random numbers): each test's
    draws are independent of its own point, as the test needs, but not of
    the other tests' in its probe.

    With the draws fixed, A(z) = sum_{k<t} C_k z^(x)k + Gamma(z^(x)t) is a
    degree-t polynomial in z.  Gamma is linear, so C_k (d^k, c_t) is the
    reps-mean of the coefficient-weighted images of the block-0 words with z
    at k slots, with the standard basis of R^d put at those slots: one slice
    each of the word images over the pool [e_0..e_{d-1}, y_0..y_{t-2}].
    Block 1 holds no z and goes into C_0.  The all-z word has coefficient 1
    and is Gamma(z^(x)t).  Per probe this costs reps * (2t-1) draws and
    reps * ((d+t-1)^t + t^t) word images; per test point,
    sum_{k<t} c_t d^k multiply-adds and one chain row.

    The probes run in passes of whole probes (probes_per_pass), whose
    largest intermediates hold at most WORKING_SET / 8 floats: the probe
    vote holds a pass's batches and their differences beside it, and a pass
    must stay well under the chain build's WORKING_SET so that the vote
    never sets the process's peak memory.  Each pass makes two
    word_images calls, one chain pass over all its points and one batched
    matmul per polynomial term.
    """
    t = cfg.t
    probes, n, d = zs.shape
    reps = cfg.reps
    c = chain.out_dim
    q = d + t - 1
    draws = np.asarray(base_sampler.draw(probes * reps * (2 * t - 1)), dtype=float)
    draws = draws.reshape(probes, reps, 2 * t - 1, d)
    words, coeffs = r_expansion_arrays(t)
    chunk = probes_per_pass(n, chain, reps)
    eye = np.eye(d)
    out = np.empty((probes, n))
    for start in range(0, probes, chunk):
        y = draws[start : start + chunk]
        p = len(y)
        y = y.reshape(p * reps, 2 * t - 1, d)
        pool = np.concatenate([np.broadcast_to(eye, (p * reps, d, d)), y[:, : t - 1]], axis=1)
        images = nested_projection.word_images(chain, pool).reshape(p, reps, q**t, c).sum(axis=1)
        images = (images / reps).reshape((p,) + (q,) * t + (c,))
        block1 = nested_projection.word_images(chain, y[:, t - 1 :]).reshape(p, reps, t**t, c).sum(axis=1)
        poly = [np.zeros((p, d**k, c)) for k in range(t)]
        poly[0] -= (coeffs @ block1 / reps)[:, None, :]
        for word, coeff in zip(words, coeffs):
            k = int(np.count_nonzero(word == 0))
            if k < t:
                at = tuple(slice(d) if j == 0 else d + j - 1 for j in word)
                poly[k] += coeff * images[(slice(None),) + at].reshape(p, d**k, c)
        z = zs[start : start + p]
        flat = z.reshape(p * n, d)
        a = nested_projection.apply_rank1_batch(chain, np.broadcast_to(flat[:, None, :], (p * n, t, d)))
        a = a.reshape(p, n, c) + poly[0]
        power = z
        for k in range(1, t):
            a += power @ poly[k]
            if k < t - 1:
                power = (power[..., None] * z[:, :, None, :]).reshape(p, n, -1)
        out[start : start + p] = np.linalg.norm(a, axis=2)
    return out


def test_sample_batch(zs, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Vectorized Far/Close; returns a boolean Far mask of zs's leading shape.

    zs holds one probe's points, shape (d,) or (n, d), which share one set
    of reps * (2t-1) base draws, or P probes' points, shape (P, n, d), each
    probe with its own set.  Per probe the statistic's coefficients cost
    reps * ((d+t-1)^t + t^t) word images; per point, sum_{k<t} c_t d^k
    multiply-adds and one chain row (see _statistic_batch)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    if chain.stage_count != cfg.t:
        raise ValueError(f"chain degree {chain.stage_count} != configured t {cfg.t}")
    if zs.ndim > 3 or zs.shape[-1] != chain.d:
        raise ValueError(f"samples have shape {zs.shape}, expected (n, {chain.d}) or (P, n, {chain.d})")
    stats = _statistic_batch(zs.reshape((-1,) + zs.shape[-2:]), chain, cfg, base_sampler)
    return stats.reshape(zs.shape[:-1]) >= cfg.tau


def pair_test(z, z_prime, chain: NestedProjection, cfg: TestConfig, base_sampler) -> bool:
    """True (accept) iff the scaled difference tests Close under the difference chain."""
    return bool(pair_test_batch(z, z_prime, chain, cfg, base_sampler)[0])


def pair_test_batch(z, others, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Accept mask of pair tests between P probes and their batches.

    z is one probe, shape (d,), or P probes, shape (P, d); others holds P * m
    rows, probe p's m rows contiguous, and the mask has one entry per row.
    One call tests all P probes in one Far/Close pass and draws
    P * reps * (2t-1) base rows in one request, probe p reading the p-th
    run: the rows P one-probe calls in a row would read.  A probe's pair
    tests share its draws.  Per probe the statistic's coefficients cost
    reps * ((d+t-1)^t + t^t) word images; each pair then costs
    sum_{k<t} c_t d^k multiply-adds and one chain row (see _statistic_batch)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    others = np.atleast_2d(np.asarray(others, dtype=float))
    diffs = (z[:, None, :] - others.reshape(len(z), -1, others.shape[1])) / math.sqrt(2.0)
    return ~test_sample_batch(diffs, chain, cfg, base_sampler).reshape(-1)
