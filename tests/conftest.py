import numpy as np
import pytest

from mixcluster.nested_projection import NestedProjection, apply_rank1_batch
from mixcluster.oracles import PARTITION_GUARD, SizeLimitError


def random_nested_projection(d, widths, rng):
    """A NestedProjection with random row-orthonormal stages of the given
    output widths."""
    stages = []
    c_prev = 1
    for c in widths:
        raw = rng.standard_normal((d * c_prev, max(c, 1)))
        q, _ = np.linalg.qr(raw)
        stages.append(q[:, :c].T)
        c_prev = c
    return NestedProjection(tuple(stages), d)


class RowCounter:
    """Passes draws through to a stream, counts the rows it returns and
    records each request size.  Counters given one shared ``log`` list also
    append ``(name, n)`` to it, so a test can read the order of requests
    across streams.  Other attributes, such as a base stream's
    ``dist_tag``, are the inner stream's."""

    def __init__(self, inner, name=None, log=None):
        self.inner = inner
        self.d = inner.d
        self.rows = 0
        self.requests = []
        self.name = name
        self.log = log

    def draw(self, n):
        self.requests.append(n)
        if self.log is not None:
            self.log.append((self.name, n))
        out = self.inner.draw(n)
        self.rows += len(out)
        return out

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Reference for nested_projection.word_images as the estimator used it
# before: the listed tail words are gathered per row and pushed through the
# chain one word at a time, then grouped by first factor with a
# kron(weights, I_c) gemm.  The Far/Close references still group this way.
def grouped_tail_images(
    np_: NestedProjection, blocks: np.ndarray, tails: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted sums of the chain's images of each block's tail words.

    blocks (n, q, d) holds q samples per row, tails (u, L) lists words over
    those q slots with L = the chain's stage count, and weights has shape
    (q, r, u).  Returns (n, q, r, c) with
    [i, j, a] = sum_u weights[j, a, u] * Gamma(blocks[i, tails[u]]).

    A sum over words v_1..v_{L+1} of coefficient times
    (I_d kron Gamma)(b_{v_1} x b_{v_2..v_{L+1}}) groups by first factor into
    sum_j b_j x [j, a] when the tails are the distinct v_2..v_{L+1} and
    weights[j, a, u] is the coefficient of word (j, tail u) in sum a.  Each
    tail then goes through the chain once per row instead of once per word.
    With no stages the only tail is empty and its image is the scalar 1.
    """
    n, q, d = blocks.shape
    n_tails, length = tails.shape
    if length != np_.stage_count or d != np_.d:
        raise ValueError("tail words do not match the chain")
    r = weights.shape[1]
    if weights.shape != (q, r, n_tails):
        raise ValueError(f"weights must have shape ({q}, r, {n_tails})")
    c = np_.out_dim
    if length == 0:
        images = np.ones((n, n_tails * c))
    else:
        gathered = np.take(blocks, tails, axis=1).reshape(n * n_tails, length, d)
        images = apply_rank1_batch(np_, gathered).reshape(n, n_tails * c)
    # one gemm for all rows: faster than a batched matmul over n tiny matrices
    grouping = np.kron(weights.reshape(q * r, n_tails), np.eye(c)).T
    return (images @ grouping).reshape(n, q, r, c)


# Enumerator behind the closed-form adjusted polynomial that
# test_poly_estimators cross-checks the recursion against; test_tensor_core
# checks its counts.
def unordered_partitions(s, t: int):
    """Partitions of the index set `s` into at most t unordered nonempty blocks.

    Each partition is yielded once (blocks ordered by smallest element); the
    all-empty partition of the empty set is the empty tuple.  Padding with
    empty blocks up to t parts is implicit.
    """
    elems = sorted(s)
    if len(elems) > PARTITION_GUARD:
        raise SizeLimitError(f"partition ground set larger than {PARTITION_GUARD}")
    if not elems:
        yield ()
        return

    def rec(i, blocks):
        if i == len(elems):
            yield tuple(frozenset(b) for b in blocks)
            return
        e = elems[i]
        for b in blocks:
            b.append(e)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < t:
            blocks.append([e])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])
