"""The Far/Close sample test on projected rank-1 moment statistics.

A sample z is tested by averaging Gamma flat(R_t(z, y_0..y_{2t-2})) over
blocks of 2t-1 base draws and thresholding the norm of the average.  With
the draws fixed, the average is a degree-t polynomial in z,
A(z) = sum_{k<t} C_k z^(x)k + Gamma(z^(x)t), and its limit as the blocks
grow is Gamma applied to the adjusted polynomial P_t (the Hermite tensor
for a Gaussian base; oracles.adjusted_poly_recursive): a function of the
chain and the base law alone.  So the coefficients C_0..C_{t-1} are
estimated once per chain (:func:`build_pair_test`), from one request of
COEFF_BLOCKS * reps blocks of 2t-1 noise rows, and cached on the chain's
:class:`PairTest`; every test under that chain evaluates the same
polynomial and draws no rows.  Per chain this costs
COEFF_BLOCKS * reps * (2t-1) draws and COEFF_BLOCKS * reps * ((d+t-1)^t + t^t)
word images (nested_projection.word_images, the moment estimator's
routine); per test point, sum_{k<t} c_t d^k multiply-adds and one chain
row, whatever reps is.

Soundness.  The coefficient rows come from the noise stream alone, so they
are independent of every tested row.  Condition on them: A is then a fixed
function, and tests of independent points stay independent given it, so
the probe vote's Chernoff count (poincare_cluster.vote_sizes) holds
conditionally.  Unconditioning adds one event to the union bound, "the
coefficients are off by more than epsilon", whose probability falls as
COEFF_BLOCKS * reps grows.

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
COEFF_BLOCKS = 16  # coefficient blocks per rep: a chain's statistic averages COEFF_BLOCKS * reps blocks


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


def probes_per_pass(n: int, chain: NestedProjection) -> int:
    """Probes of n test points each that one pass of the statistic takes:
    as many as keep the pass's largest intermediates within WORKING_SET / 8
    floats, and at least one.  Per point a pass holds z^(x)(t-1) twice and
    a chain row's widest intermediate; the coefficients are the chain's,
    built once (:func:`build_pair_test`), so a pass holds nothing per rep.
    The probe vote draws and tests its probes in passes of this size."""
    d, t, widths = chain.d, chain.stage_count, chain.widths
    floats = n * (2 * d ** (t - 1) + d * max(t, *widths))
    return max(1, nested_projection.WORKING_SET // (8 * floats))


@dataclass(frozen=True)
class PairTest:
    """A Far/Close test under one chain: the chain, its config, and the
    statistic's coefficients C_0..C_{t-1}, C_k of shape (d^k, c), estimated
    once from the noise the chain was built on (:func:`build_pair_test`).
    Every test under it evaluates that one polynomial and draws nothing."""

    chain: NestedProjection
    cfg: TestConfig
    coeffs: tuple


def build_pair_test(chain: NestedProjection, cfg: TestConfig, noise) -> PairTest:
    """The test ``cfg`` under ``chain``, with the statistic's coefficients
    averaged over COEFF_BLOCKS * cfg.reps blocks of 2t-1 rows of ``noise``,
    drawn in one request.

    Gamma is linear, so C_k (d^k, c) is the block mean of the
    coefficient-weighted images of the block-0 words with z at k slots,
    with the standard basis of R^d put at those slots: one slice each of
    the word images over the pool [e_0..e_{d-1}, y_0..y_{t-2}].  Block 1
    (y_{t-1}..y_{2t-2}) holds no z and goes into C_0.  The all-z word has
    coefficient 1 and is Gamma(z^(x)t), which the evaluation takes per
    point.  The blocks are imaged in chunks whose largest intermediates
    hold at most WORKING_SET / 8 floats, the statistic passes' bound, so
    the build never sets the process's peak memory either.
    """
    t = cfg.t
    if chain.stage_count != t:
        raise ValueError(f"chain degree {chain.stage_count} != configured t {t}")
    d, c, widths = chain.d, chain.out_dim, chain.widths
    q = d + t - 1
    blocks = COEFF_BLOCKS * cfg.reps
    draws = np.asarray(noise.draw(blocks * (2 * t - 1)), dtype=float).reshape(blocks, 2 * t - 1, d)
    per_block = max(q ** (l - 1) * (widths[l - 1] + d * widths[l]) + q**l * widths[l] for l in range(1, t + 1))
    chunk = max(1, nested_projection.WORKING_SET // (8 * per_block))
    eye = np.eye(d)
    images = np.zeros((q**t, c))
    block1 = np.zeros((t**t, c))
    for start in range(0, blocks, chunk):
        y = draws[start : start + chunk]
        pool = np.concatenate([np.broadcast_to(eye, (len(y), d, d)), y[:, : t - 1]], axis=1)
        images += nested_projection.word_images(chain, pool).sum(axis=0)
        block1 += nested_projection.word_images(chain, y[:, t - 1 :]).sum(axis=0)
    images = (images / blocks).reshape((q,) * t + (c,))
    words, weights = r_expansion_arrays(t)
    poly = [np.zeros((d**k, c)) for k in range(t)]
    poly[0] -= weights @ block1 / blocks
    for word, weight in zip(words, weights):
        k = int(np.count_nonzero(word == 0))
        if k < t:
            at = tuple(slice(d) if j == 0 else d + j - 1 for j in word)
            poly[k] += weight * images[at].reshape(d**k, c)
    return PairTest(chain, cfg, tuple(poly))


def _statistic_batch(zs: np.ndarray, test: PairTest) -> np.ndarray:
    """The statistics ||A(z)|| of P probes' test points under ``test``'s
    cached polynomial: zs has shape (P, n, d), the result (P, n).

    Each point costs one chain row, Gamma(z^(x)t), and
    sum_{k<t} c_t d^k multiply-adds; nothing is drawn.  The probes run in
    passes of whole probes (probes_per_pass), whose largest intermediates
    hold at most WORKING_SET / 8 floats: the probe vote holds a pass's
    batches and their differences beside it, and a pass must stay well
    under the chain build's WORKING_SET so that the vote never sets the
    process's peak memory.  Each pass makes one chain call over its points
    and one matmul per lower polynomial term.
    """
    chain, poly, t = test.chain, test.coeffs, test.cfg.t
    probes, n, d = zs.shape
    chunk = probes_per_pass(n, chain)
    out = np.empty((probes, n))
    for start in range(0, probes, chunk):
        p = min(chunk, probes - start)
        z = zs[start : start + p].reshape(p * n, d)
        a = nested_projection.apply_rank1_batch(chain, np.broadcast_to(z[:, None, :], (p * n, t, d))) + poly[0]
        power = z
        for k in range(1, t):
            a += power @ poly[k]
            if k < t - 1:
                power = (power[:, :, None] * z[:, None, :]).reshape(p * n, -1)
        out[start : start + p] = np.linalg.norm(a, axis=1).reshape(p, n)
    return out


def _far_mask(zs, test: PairTest) -> np.ndarray:
    """Far mask of zs's leading shape under ``test``: zs is one point (d,),
    one probe's points (n, d) or P probes' points (P, n, d)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    if zs.ndim > 3 or zs.shape[-1] != test.chain.d:
        raise ValueError(f"samples have shape {zs.shape}, expected (n, {test.chain.d}) or (P, n, {test.chain.d})")
    stats = _statistic_batch(zs.reshape((-1,) + zs.shape[-2:]), test)
    return stats.reshape(zs.shape[:-1]) >= test.cfg.tau


def test_sample_batch(zs, chain: NestedProjection, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Vectorized Far/Close; returns a boolean Far mask of zs's leading shape.

    zs holds one point (d,), one probe's points (n, d) or P probes' points
    (P, n, d).  The call builds the statistic's coefficients from
    ``base_sampler`` (:func:`build_pair_test`: one request of
    COEFF_BLOCKS * reps * (2t-1) rows) and evaluates them at every point, at
    one chain row and sum_{k<t} c_t d^k multiply-adds a point."""
    return _far_mask(zs, build_pair_test(chain, cfg, base_sampler))


def pair_test(z, z_prime, chain: NestedProjection, cfg: TestConfig, base_sampler) -> bool:
    """True (accept) iff the scaled difference tests Close under the
    difference chain, with coefficients built from ``base_sampler``."""
    return bool(pair_test_batch(z, z_prime, build_pair_test(chain, cfg, base_sampler))[0])


def pair_test_batch(z, others, test: PairTest) -> np.ndarray:
    """Accept mask of pair tests between P probes and their batches.

    z is one probe, shape (d,), or P probes, shape (P, d); others holds P * m
    rows, probe p's m rows contiguous, and the mask has one entry per row.
    Every pair evaluates ``test``'s cached polynomial at (z - z')/sqrt(2):
    one chain row and sum_{k<t} c_t d^k multiply-adds a pair, and no draws."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    others = np.atleast_2d(np.asarray(others, dtype=float))
    diffs = (z[:, None, :] - others.reshape(len(z), -1, others.shape[1])) / math.sqrt(2.0)
    return ~_far_mask(diffs, test).reshape(-1)
