"""Dense references for the lazy moment path.

The learners never write down a d^t tensor.  Every function here does, or
enumerates the partitions such a tensor sums over, so each is guarded, and
no learner imports this module.  Each is kept because a release criterion
or a ``validate`` suite checks the lazy path against it:

- ``Rank1Term``, ``labeled_partitions``, ``count_nonempty``,
  ``sym_interleavings``, ``place_blocks`` and ``outer_power``: the dense
  tensor algebra the references below are built from; C3 checks the mean
  of R_t against ``outer_power``.
- ``univariate_moment``, ``BaseMoments`` and ``base_moments``: the exact
  base moment tensors D_1..D_t (C1, C2, ``validate rank1-identity`` and
  ``hermite``).
- ``adjusted_poly_recursive``, ``hermite_tensor`` and
  ``hermite_univariate``: the adjusted polynomial P_t by its defining
  recursion, and the Hermite tensor and polynomial it equals for a
  Gaussian base (C2, ``validate hermite``).
- ``Rank1Expansion``, ``r_poly_terms`` and ``r_poly_dense_oracle``: the
  rank-1 expansion of R_t summed densely, and R_t from its Q_t definition
  (C1, ``validate rank1-identity``).
- ``prefix``, ``apply_rank1``, ``apply_kron_block`` and ``dense_matrix``: a
  chain's first stages, the chain applied to one rank-1 tensor, and the
  chain materialized (C5, C6).
- ``exact_moment_matrix`` and ``exact_projection_chain``: the chain of a
  known spec, from its exact moment matrices (C6, C7,
  ``validate projection``).

Flattening is row-major: the first tensor axis is most significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .mixture_gen import BASE_TAGS, LAPLACE_SCALE, UNIFORM_HALF_WIDTH, UnsupportedDistributionError
from .moment_pipeline import MixtureSpec, SizeLimitError, next_stage
from .nested_projection import NestedProjection, identity_projection
from .sample_test import r_expansion_arrays

# Dense paths materialize d^t arrays; partition enumerators walk up to t^t or
# Bell-number many objects.  Fail loudly instead of exhausting memory.
DENSE_GUARD_T = 8
PARTITION_GUARD = 12

_BASE_GUARD_T = 6
_BASE_GUARD_D = 4

_DENSE_GUARD = 10_000


@dataclass(frozen=True)
class Rank1Term:
    """A signed rank-1 tensor coeff * factors[0] x ... x factors[t-1]."""

    coeff: float
    factors: tuple

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("Rank1Term requires at least one factor")
        d = len(self.factors[0])
        if any(len(f) != d for f in self.factors):
            raise ValueError("all factors must share one dimension")

    def dense(self) -> np.ndarray:
        out = np.array(self.coeff, dtype=float)
        for f in self.factors:
            out = np.multiply.outer(out, np.asarray(f, dtype=float))
        return out


def labeled_partitions(t: int):
    """All assignments of {0..t-1} into t labeled (possibly empty) slots.

    Yields tuples of t frozensets, lexicographic in the slot-assignment word;
    exactly t^t partitions.
    """
    if t == 0:
        return
    for word in itertools.product(range(t), repeat=t):
        parts = [[] for _ in range(t)]
        for pos, slot in enumerate(word):
            parts[slot].append(pos)
        yield tuple(frozenset(p) for p in parts)


def count_nonempty(parts) -> int:
    return sum(1 for p in parts if len(p) > 0)


def sym_interleavings(sizes):
    """All ways to split positions {0..sum(sizes)-1} into ordered blocks.

    Block i receives sizes[i] positions (yielded sorted); the number of
    interleavings is the multinomial coefficient of `sizes`.
    """
    sizes = tuple(sizes)
    total = sum(sizes)
    if total > PARTITION_GUARD:
        raise SizeLimitError(f"total order larger than {PARTITION_GUARD}")

    def rec(remaining, left):
        if not left:
            yield ()
            return
        for block in itertools.combinations(remaining, left[0]):
            taken = set(block)
            rest = tuple(p for p in remaining if p not in taken)
            for tail in rec(rest, left[1:]):
                yield (block,) + tail

    yield from rec(tuple(range(total)), sizes)


def place_blocks(t: int, d: int, pieces) -> np.ndarray:
    """Dense order-t tensor product of `pieces`, each (positions, tensor).

    The tensors' axes land on the given positions; positions must cover
    {0..t-1} exactly.  Scalar pieces carry empty position tuples.
    """
    if t > DENSE_GUARD_T:
        raise SizeLimitError(f"dense order {t} exceeds guard {DENSE_GUARD_T}")
    out = np.array(1.0)
    axes = []
    for positions, tensor in pieces:
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim != len(positions):
            raise ValueError("piece order does not match its position count")
        out = np.multiply.outer(out, tensor)
        axes.extend(positions)
    order = _axis_order(t, tuple(axes))
    if t == 0:
        return out
    return np.ascontiguousarray(out.transpose(order))


@lru_cache(maxsize=None)
def _axis_order(t: int, axes: tuple) -> tuple:
    """The transpose moving stacked axis i to position ``axes[i]``."""
    if sorted(axes) != list(range(t)):
        raise ValueError("positions must cover 0..t-1 exactly")
    order = [0] * t
    for i, pos in enumerate(axes):
        order[pos] = i
    return tuple(order)


def outer_power(x, t: int) -> np.ndarray:
    """Dense x^{tensor t}; order-0 power is the scalar 1."""
    if t > DENSE_GUARD_T:
        raise SizeLimitError(f"dense order {t} exceeds guard {DENSE_GUARD_T}")
    out = np.array(1.0)
    x = np.asarray(x, dtype=float)
    for _ in range(t):
        out = np.multiply.outer(out, x)
    return out


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


def _product_moment_tensor(dist_tag: str, j: int, d: int) -> np.ndarray:
    """E[z^{tensor j}] for a product base, which every base is: entries are
    products of univariate moments of the per-coordinate multiplicities."""
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
    return BaseMoments(dist_tag, d, tuple(_product_moment_tensor(dist_tag, j, d) for j in range(1, t + 1)))


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


def prefix(np_: NestedProjection, n_stages: int) -> NestedProjection:
    """The chain of the first n_stages stages of np_."""
    return NestedProjection(np_.stages[:n_stages], np_.d)


def apply_rank1(np_: NestedProjection, factors) -> np.ndarray:
    """Gamma applied to flatten(factors[0] x ... x factors[s-1])."""
    s = np_.stage_count
    if len(factors) != s:
        raise ValueError(f"expected {s} factors, got {len(factors)}")
    w = np_.stages[0] @ np.asarray(factors[-1], dtype=float)
    for i in range(1, s):
        u = np.asarray(factors[s - 1 - i], dtype=float)
        w = np_.stages[i] @ np.kron(u, w)
    return w


def apply_kron_block(np_: NestedProjection, left_factor, tail) -> np.ndarray:
    """(I_d kron Gamma) applied to flatten(left_factor x tail product)."""
    left_factor = np.asarray(left_factor, dtype=float)
    if np_.stage_count == 0 or len(tail) == 0:
        if len(tail) != np_.stage_count:
            raise ValueError("tail length must equal the chain's stage count")
        return left_factor.copy()
    return np.kron(left_factor, apply_rank1(np_, tail))


def dense_matrix(np_: NestedProjection) -> np.ndarray:
    """Materialized c_s x d^s matrix; with row-major flattening, it times
    flatten(v_1 x ... x v_s) equals apply_rank1 on (v_1, ..., v_s)."""
    s = np_.stage_count
    if np_.d**s > _DENSE_GUARD:
        raise SizeLimitError(f"dense projection guard: d^s <= {_DENSE_GUARD}")
    g = np_.stages[0]
    eye = np.eye(np_.d)
    for i in range(1, s):
        g = np_.stages[i] @ np.kron(eye, g)
    return g


def exact_moment_matrix(spec: MixtureSpec, np_prev: NestedProjection) -> np.ndarray:
    """A_{2s} = sum_i w_i v_i v_i^T with v_i = (I kron Gamma) flat(mu_i^{x s})."""
    s = np_prev.stage_count + 1
    out_dim = spec.d * np_prev.out_dim
    acc = np.zeros((out_dim, out_dim))
    for w, mu in zip(spec.weights, spec.means):
        v = apply_kron_block(np_prev, mu, (mu,) * (s - 1))
        acc += w * np.outer(v, v)
    return acc


def exact_projection_chain(spec: MixtureSpec, t: int, k: int) -> NestedProjection:
    """The chain iterative_projection builds, from exact A_{2s} matrices."""
    chain = identity_projection(spec.d)
    for _ in range(2, t + 1):
        chain = next_stage(chain, exact_moment_matrix(spec, chain), k)
    return chain
