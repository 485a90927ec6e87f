"""Lazily applied nested projections Gamma = Pi_s (I_d kron (Pi_{s-1} (...))).

Ordering convention (fixed globally, observable through the dense oracle):
the innermost stage Pi_1 consumes the LAST tensor factor, so stage j consumes
factor s-j+1.  With row-major flattening this makes dense_matrix() times
flatten(v_1 x ... x v_s) equal to apply_rank1 on (v_1, ..., v_s).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tensor_core import SizeLimitError

_REORTH_DRIFT = 1e-8
_DENSE_GUARD = 10_000

SERIALIZATION_VERSION = 1


def _orthonormalize_rows(stage: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(stage.T)
    # keep the original row orientation as closely as possible
    signs = np.sign(np.einsum("ij,ji->i", q.T, stage.T))
    signs[signs == 0] = 1.0
    return (q * signs).T


@dataclass(frozen=True)
class NestedProjection:
    """Immutable chain of row-orthonormal stages Pi_1..Pi_s over ambient R^d."""

    stages: tuple
    d: int

    def __post_init__(self):
        stages = []
        width = 1
        for j, stage in enumerate(self.stages, start=1):
            stage = np.asarray(stage, dtype=float)
            if stage.ndim != 2 or stage.shape[1] != self.d * width:
                raise ValueError(
                    f"stage {j} must have shape (c_{j}, {self.d * width}), got {stage.shape}"
                )
            gram = stage @ stage.T
            drift = np.max(np.abs(gram - np.eye(stage.shape[0])))
            if drift > _REORTH_DRIFT:
                stage = _orthonormalize_rows(stage)
            stages.append(stage)
            width = stage.shape[0]
        object.__setattr__(self, "stages", tuple(stages))

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def widths(self) -> tuple:
        return (1,) + tuple(s.shape[0] for s in self.stages)

    @property
    def out_dim(self) -> int:
        return self.stages[-1].shape[0] if self.stages else 1

    def prefix(self, n_stages: int) -> "NestedProjection":
        """The chain of the first n_stages stages.  No production code calls it:
        it is the oracle C6 (and the estimator's unit tests) need to read a
        chain's lower-degree stages."""
        return NestedProjection(self.stages[:n_stages], self.d)

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": SERIALIZATION_VERSION,
                "d": self.d,
                "stages": [
                    {"shape": list(s.shape), "entries": s.ravel().tolist()}
                    for s in self.stages
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, doc: str) -> "NestedProjection":
        data = json.loads(doc)
        if data.get("version") != SERIALIZATION_VERSION:
            raise ValueError(f"unsupported serialization version {data.get('version')}")
        stages = tuple(
            np.array(rec["entries"], dtype=float).reshape(rec["shape"])
            for rec in data["stages"]
        )
        return cls(stages, int(data["d"]))


def identity_projection(d: int) -> NestedProjection:
    """The single-stage chain Pi_1 = I_d."""
    return NestedProjection((np.eye(d),), d)


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


def apply_rank1_batch(np_: NestedProjection, factors: np.ndarray) -> np.ndarray:
    """Vectorized apply_rank1: factors has shape (n, s, d) -> (n, c_s)."""
    n, s, d = factors.shape
    if s != np_.stage_count or d != np_.d:
        raise ValueError("factor block shape does not match the chain")
    w = factors[:, -1, :] @ np_.stages[0].T
    for i in range(1, s):
        u = factors[:, s - 1 - i, :]
        x = (u[:, :, None] * w[:, None, :]).reshape(n, -1)
        w = x @ np_.stages[i].T
    return w


def apply_kron_block(np_: NestedProjection, left_factor, tail) -> np.ndarray:
    """(I_d kron Gamma) applied to flatten(left_factor x tail product)."""
    left_factor = np.asarray(left_factor, dtype=float)
    if np_.stage_count == 0 or len(tail) == 0:
        if len(tail) != np_.stage_count:
            raise ValueError("tail length must equal the chain's stage count")
        return left_factor.copy()
    return np.kron(left_factor, apply_rank1(np_, tail))


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


def dense_matrix(np_: NestedProjection) -> np.ndarray:
    """Materialized c_s x d^s matrix; oracle for the lazy appliers."""
    s = np_.stage_count
    if np_.d**s > _DENSE_GUARD:
        raise SizeLimitError(f"dense projection guard: d^s <= {_DENSE_GUARD}")
    g = np_.stages[0]
    eye = np.eye(np_.d)
    for i in range(1, s):
        g = np_.stages[i] @ np.kron(eye, g)
    return g

