"""Estimating projected moment matrices A_{2s} and the iterative projection.

The estimator never materializes a d^{2s} tensor.  Each mixture sample
contributes the rank-1 expansion of R_{2s}(z, x_1..x_{4s-1}), whose terms
pair two half-words over the sample slots.  Terms are grouped by the slot
sets their halves touch, which collapses the (2s)^{2s} labeled partitions
into one vector per slot set and a small coefficient matrix between them.
That matrix is rank-deficient, so its eigenvectors are folded into the
grouping, split by the sign of their eigenvalue with sqrt|eigenvalue|
folded in: the quadratic form becomes a difference of two sums of squares,
and the signs live in which half a folded row belongs to, not in a
multiply.  Within a slot set the half-words are grouped again by their
first factor, so Gamma is applied to each of the (2s)^(s-1) distinct tails
once per block, and all tails of a chunk go through each chain stage in
one gemm and one row-batched matmul (nested_projection.word_images).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import nested_projection
from .nested_projection import NestedProjection, identity_projection, word_images


class EmptySampleError(ValueError):
    pass


class NumericError(ValueError):
    pass


class SizeLimitError(ValueError):
    """A combinatorial or dense-tensor guard was exceeded."""


@dataclass(frozen=True)
class MixtureSpec:
    """Ground-truth mixture: weights, means, and the base distribution tag."""

    weights: np.ndarray
    means: np.ndarray  # (k, d)
    dist_tag: str = "gaussian"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        if w.ndim != 1 or len(w) != m.shape[0]:
            raise ValueError("weights and means must have matching component counts")
        if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("means must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def w_min(self) -> float:
        return float(self.weights.min())

    def min_separation(self) -> float:
        if self.k < 2:
            return float("inf")
        dists = [
            np.linalg.norm(self.means[i] - self.means[j])
            for i, j in itertools.combinations(range(self.k), 2)
        ]
        return float(min(dists))

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "dist_tag": self.dist_tag,
        }


def _half_word_floats(s: int) -> int:
    """Floats in _half_word_tables(s)' table: 2s x sum_{1<=i<=s} C(2s, i) x (2s)^(s-1)."""
    t = 2 * s
    return t * sum(math.comb(t, i) for i in range(1, s + 1)) * t ** (s - 1)


# The largest degree a learner or the CLI accepts: its half-word table fits a chunk's working set.
MAX_DEGREE = next(s for s in itertools.count(1) if _half_word_floats(s + 1) > nested_projection.WORKING_SET)


def partition_coeff(t: int, c: int) -> float:
    """(-1)^(c-1) / binom(t-1, c-1): the weight, in the rank-1 expansion of
    R_t, of a word of t positions over c distinct samples."""
    return float(Fraction((-1) ** (c - 1), math.comb(t - 1, c - 1)))


@lru_cache(maxsize=None)
def _half_word_tables(s: int):
    """Folded grouping tables for the degree-2s estimator, split by sign.

    A half-word is a word of s sample slots from [2s]; in product order,
    half-word j * (2s)^(s-1) + u has first slot j and tail u.  Let
    weights[j, a, u] be 1 when half-word (j, tail u) covers slot set a and
    0 otherwise, and C[a, b] the signed weight of any labeled partition
    whose two halves cover slot sets a and b.  C is rank-deficient (rank 5
    of 10 slot sets at s = 2, 19 of 41 at s = 3), so with C = Q diag(lam) Q^T
    over its eigenvalues above 1e-9 of the largest magnitude, C restricted
    to the half-words is F+^T F+ - F-^T F- for the tables returned,
    (positive, negative): F[j, m, u] = sqrt|lam_m| sum_a weights[j, a, u] Q[a, m]
    over the r+ positive and the r- negative eigenvalues, of shapes
    (2s, r+-, (2s)^(s-1)); (r+, r-) is (1, 0), (3, 2) and (10, 9) at s = 1, 2, 3.
    """
    if s > MAX_DEGREE:
        raise SizeLimitError(f"degree {s} exceeds MAX_DEGREE = {MAX_DEGREE}")
    t = 2 * s
    words = itertools.product(range(t), repeat=s)
    subsets = []
    sub_id = {}
    for size in range(1, s + 1):
        for comb in itertools.combinations(range(t), size):
            sub_id[frozenset(comb)] = len(subsets)
            subsets.append(frozenset(comb))
    nsub = len(subsets)
    n_tails = t ** (s - 1)
    weights = np.zeros((t, nsub, n_tails))
    for i, w in enumerate(words):
        j, u = divmod(i, n_tails)
        weights[j, sub_id[frozenset(w)], u] = 1.0
    coeffs = np.empty((nsub, nsub))
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            coeffs[a, b] = partition_coeff(t, len(sa | sb))
    lam, vecs = np.linalg.eigh(coeffs)
    tol = 1e-9 * np.abs(lam).max()
    return tuple(
        np.einsum("jau,am->jmu", weights, vecs[:, half] * np.sqrt(np.abs(lam[half])))
        for half in (lam > tol, lam < -tol)
    )


def estimate_moment_matrix(
    mix_sampler, base_sampler, s: int, np_prev: NestedProjection, n: int
) -> np.ndarray:
    """Monte-Carlo estimate of A_{2s} from n mixture samples, symmetrised.

    Each sample draws 4s-1 fresh base samples and splits (z_i, x_1..x_{4s-1})
    into two blocks of 2s.  The rank-1 expansion of R_{2s} over a block pairs
    two half-words, and the pairs sum to sum_m v_m^T v_m over the r+ positive
    folded rows minus the same sum over the r- negative ones, with
    v_m = sum_j b_j x sum_u F[j, m, u] Gamma(tail u) (_half_word_tables).
    Each block pushes all its (2s)^(s-1) tails through Gamma at once
    (word_images); block 1 enters with the opposite sign.  A chunk's rows
    are block-major, so the folded vectors of each (block, sign) pair form
    one contiguous (b r+-, d c_{s-1}) slab V, and the symmetric average
    gathers V0+^T V0+ - V1+^T V1+ - V0-^T V0- + V1-^T V1- as four V^T V
    products.  Per chunk that costs one gemm and one row-batched matmul per
    chain stage, one grouping matmul, one folding matmul per sign and the
    four products; the grouped images and the folded vectors go into one
    workspace made once per call.
    """
    if n < 1:
        raise EmptySampleError("estimate_moment_matrix needs n >= 1")
    if np_prev.stage_count != s - 1:
        raise ValueError(f"np_prev must have {s - 1} stages for degree 2s={2 * s}")
    d = np_prev.d
    c = np_prev.out_dim
    out_dim = d * c
    halves = _half_word_tables(s)
    q, _, n_tails = halves[0].shape
    ranks = [h.shape[1] for h in halves]
    r = sum(ranks)
    # rows in (sign, j, m) order, so each sign's grouped images are one range of axis 1
    grouping = np.concatenate([h.reshape(-1, n_tails) for h in halves])
    # floats per sample of the chunk's blocks, word images, grouped images
    # and folded vectors, both blocks, plus 2 r out_dim of headroom that
    # bounds the peak memory.  The chunk also fixes the summation order, so
    # changing it can move the estimate's last bits.
    per_sample = 2 * (q * d + n_tails * c + q * r * c + 2 * r * out_dim)
    chunk = max(1, nested_projection.WORKING_SET // per_sample)
    # one workspace for the call: a chunk's grouped images, then one sign's
    # folded vectors at a time
    rows = 2 * min(chunk, n)
    work = np.empty(rows * (q * r * c + max(ranks) * out_dim))
    grouped_buf = work[: rows * q * r * c].reshape(rows, q * r, c)
    folded_buf = work[rows * q * r * c :]
    acc = np.zeros((out_dim, out_dim))
    done = 0
    while done < n:
        b = min(chunk, n - done)
        z = np.asarray(mix_sampler.draw(b), dtype=float)
        x = np.asarray(base_sampler.draw(b * (4 * s - 1)), dtype=float).reshape(b, 4 * s - 1, d)
        # block-major rows: [0, b) hold block 0 (z, x_1..x_{2s-1}), [b, 2b) block 1 (x_{2s}..x_{4s-1})
        block0 = np.concatenate([z[:, None, :], x[:, : 2 * s - 1]], axis=1)
        blocks = np.concatenate([block0, x[:, 2 * s - 1 :]])
        grouped = np.matmul(grouping, word_images(np_prev, blocks), out=grouped_buf[: 2 * b])
        start = 0
        for rank, sign in zip(ranks, (1.0, -1.0)):
            # v[i, m] = sum_j grouped[i, j, m] x b_j: v_m with its factors in
            # (Gamma, d) order, which spares a transposed copy; acc is put
            # back in (d, Gamma) order once, after the loop
            g = grouped[:, start : start + q * rank].reshape(2 * b, q, rank * c).transpose(0, 2, 1)
            v = folded_buf[: 2 * b * rank * out_dim]
            np.matmul(g, blocks, out=v.reshape(2 * b, rank * c, d))
            v = v.reshape(2 * b * rank, out_dim)
            v0, v1 = v[: b * rank], v[b * rank :]
            acc += sign * (v0.T @ v0)
            acc -= sign * (v1.T @ v1)
            start += q * rank
        done += b
    acc = acc.reshape(c, d, c, d).transpose(1, 0, 3, 2).reshape(out_dim, out_dim) / n
    if not np.all(np.isfinite(acc)):
        raise NumericError("moment matrix estimate has non-finite entries")
    return (acc + acc.T) / 2.0


def lead_positive(rows: np.ndarray) -> np.ndarray:
    """Flips, in place, each row of ``rows`` whose largest-magnitude entry
    (the first of tied ones) is negative; returns ``rows``.  The one sign
    convention of every basis the learners build."""
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    rows[lead < 0] *= -1.0
    return rows


RANK_TOL = 1e-12  # top_k_subspace's relative tolerance: rows whose |eigenvalue| falls below it drop
STAGE_START = 512  # rows in each of a chain stage's first two halves
# a stage stops once each half's top-r subspace captures 1 - STAGE_SLACK of
# the other's top-r mass, r the directions the halves resolve (_halves_agree)
STAGE_SLACK = 0.01


def top_k_subspace(m: np.ndarray, k: int) -> np.ndarray:
    """Row-orthonormal basis of the top-k eigenspace of a symmetric matrix.

    Deterministic: eigenvectors are sign-normalized (:func:`lead_positive`)
    and ordered by decreasing |eigenvalue|, exact ties in eigh's order.
    Rows whose |eigenvalue| falls below RANK_TOL * ||m|| are dropped, so
    fewer than k rows may return.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    # a zero matrix keeps no row: every |eigenvalue| is 0, not above 0
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return lead_positive(vecs.T[order[np.abs(vals[order]) > RANK_TOL * scale]])


def next_stage(chain: NestedProjection, matrix: np.ndarray, k: int) -> NestedProjection:
    """Appends Pi_s, the top-k eigenspace of the degree-2s moment matrix, to
    chain (a fixed unit row when the matrix is numerically zero)."""
    pi = top_k_subspace(matrix, k)
    if pi.shape[0] == 0:
        # A zero moment matrix carries no directional signal (e.g. all
        # component means coincide), so any fixed one-dimensional stage keeps
        # the chain well-formed without affecting which means survive.
        pi = np.eye(1, matrix.shape[0])
    return NestedProjection(chain.stages + (pi,), chain.d)


def _halves_agree(a: np.ndarray, b: np.ndarray, k: int) -> bool:
    """Whether two half-estimates agree on the directions they resolve.

    The halves' noise is ||a - b||_2, the largest |eigenvalue| of their
    difference, and they resolve r = min(k, the number of |eigenvalues| of
    (a + b) / 2 above it) directions.  For two equal independent halves the
    difference carries sqrt(2) times one half's noise and the merged
    estimate 1/sqrt(2) times it, so the cut sits at about twice the merged
    estimate's noise.  With r = 0 they agree: more rows buy no direction
    above the stage's own disagreement.  Otherwise each half's top-r
    subspace must capture at least 1 - STAGE_SLACK of the other's best
    r-mass.  The r-mass an r-row orthonormal P captures of a symmetric m is
    the nuclear norm of P m P^T; its maximum over P is the sum of the r
    largest |eigenvalues| of m, which :func:`top_k_subspace`'s rows attain."""
    noise = np.max(np.abs(np.linalg.eigvalsh(a - b)))
    r = min(k, int(np.sum(np.abs(np.linalg.eigvalsh((a + b) / 2.0)) > noise)))
    if r == 0:
        return True
    for basis, other in ((a, b), (b, a)):
        pi = top_k_subspace(basis, r)
        captured = np.abs(np.linalg.eigvalsh(pi @ other @ pi.T)).sum()
        best = np.sort(np.abs(np.linalg.eigvalsh(other)))[::-1][:r].sum()
        if captured < (1.0 - STAGE_SLACK) * best:
            return False
    return True


def stage_matrix(mix_sampler, base_sampler, s: int, chain: NestedProjection, k: int, cap: int) -> np.ndarray:
    """The estimated A_{2s} of one chain stage, from at most ``cap`` rows.

    The stage is drawn in halves on a doubling schedule: the first holds
    STAGE_START rows and each later one is a fresh estimate with as many
    rows as all those drawn before it, so a stage draws min(cap,
    STAGE_START * 2^j) rows for some j >= 0.  After each half the stage
    stops once the half and the estimate of the rows before it agree on the
    directions they resolve above their own difference
    (:func:`_halves_agree`), so a stage whose scope holds no signal stops,
    as a rule, at its first check.  The last half is cut to fit the cap,
    and no check runs on a cut half.  Returns the row-weighted mean of the
    halves, which is the one-call estimate over the same rows up to the
    order of summation; a cap of STAGE_START or less makes that one call.
    """
    drawn = min(cap, STAGE_START)
    matrix = estimate_moment_matrix(mix_sampler, base_sampler, s, chain, drawn)
    while drawn < cap:
        half = min(drawn, cap - drawn)
        fresh = estimate_moment_matrix(mix_sampler, base_sampler, s, chain, half)
        merged = (drawn * matrix + half * fresh) / (drawn + half)
        if half == drawn and _halves_agree(matrix, fresh, k):
            return merged
        matrix, drawn = merged, drawn + half
    return matrix


def iterative_projection(mix_sampler, base_sampler, t: int, k: int, n_per_stage: int) -> NestedProjection:
    """Builds Pi_1 = I_d, then Pi_s from the estimated A_{2s} for s = 2..t.

    Each stage draws until its halves agree, at most ``n_per_stage`` rows
    (:func:`stage_matrix`).  Stage sample sets are disjoint by construction:
    the samplers are streams and every stage draws fresh.  A t past
    MAX_DEGREE raises before any draw.
    """
    if t < 1:
        raise ValueError("degree t must be >= 1")
    if t > MAX_DEGREE:
        raise SizeLimitError(f"degree {t} exceeds MAX_DEGREE = {MAX_DEGREE}")
    chain = identity_projection(mix_sampler.d)
    for s in range(2, t + 1):
        chain = next_stage(chain, stage_matrix(mix_sampler, base_sampler, s, chain, k, n_per_stage), k)
    return chain
