"""Lazily applied nested projections Gamma = Pi_s (I_d kron (Pi_{s-1} (...))).

Ordering convention (fixed globally): the innermost stage Pi_1 consumes the
LAST tensor factor, so stage j consumes factor s-j+1.  With row-major
flattening this makes oracles.dense_matrix times flatten(v_1 x ... x v_s)
equal to apply_rank1_batch on (v_1, ..., v_s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-8  # largest |Pi Pi^T - I| entry a stage may carry
# floats a chunk's largest intermediates may hold, in the kernels that push
# rows through a chain (the moment estimator; sample_test's coefficient
# build and its statistic's passes take an eighth of it)
WORKING_SET = 1 << 21


@dataclass(frozen=True)
class NestedProjection:
    """Immutable chain of row-orthonormal stages Pi_1..Pi_s over ambient R^d."""

    stages: tuple
    d: int

    def __post_init__(self):
        stages = tuple(np.asarray(stage, dtype=float) for stage in self.stages)
        width = 1
        for j, stage in enumerate(stages, start=1):
            if stage.ndim != 2 or stage.shape[1] != self.d * width:
                raise ValueError(
                    f"stage {j} must have shape (c_{j}, {self.d * width}), got {stage.shape}"
                )
            drift = np.max(np.abs(stage @ stage.T - np.eye(stage.shape[0])))
            if drift > _ORTHO_TOL:
                raise ValueError(f"stage {j} rows are not orthonormal: |Pi Pi^T - I| reaches {drift:.2e}")
            width = stage.shape[0]
        object.__setattr__(self, "stages", stages)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def widths(self) -> tuple:
        return (1,) + tuple(s.shape[0] for s in self.stages)

    @property
    def out_dim(self) -> int:
        return self.stages[-1].shape[0] if self.stages else 1


def identity_projection(d: int) -> NestedProjection:
    """The single-stage chain Pi_1 = I_d."""
    return NestedProjection((np.eye(d),), d)


def apply_rank1_batch(np_: NestedProjection, factors: np.ndarray) -> np.ndarray:
    """Gamma applied to flatten(factors[i, 0] x ... x factors[i, s-1]) for
    every row i: factors has shape (n, s, d) -> (n, c_s)."""
    n, s, d = factors.shape
    if s != np_.stage_count or d != np_.d:
        raise ValueError("factor block shape does not match the chain")
    w = factors[:, -1, :] @ np_.stages[0].T
    for i in range(1, s):
        u = factors[:, s - 1 - i, :]
        x = (u[:, :, None] * w[:, None, :]).reshape(n, -1)
        w = x @ np_.stages[i].T
    return w


def word_images(np_: NestedProjection, blocks: np.ndarray) -> np.ndarray:
    """The chain's image of every word over each row's vectors.

    blocks (n, q, d) holds q vectors per row.  Returns (n, q^L, c) with
    [i, w] = Gamma(blocks[i, w_1], ..., blocks[i, w_L]) for the words w of
    L = the chain's stage count slots over [q], in product order (w_1 most
    significant).  With no stages the only word is empty and its image is
    the scalar 1.

    Words of one length that share a suffix share its image: stage l maps
    each suffix image W of length l-1 and each first factor b to
    Pi_l (b x W).  Contracting W with Pi_l first is one gemm over all rows
    and suffixes, and contracting the result with b is one matmul batched
    over rows, so each stage costs two large products however many words
    there are.
    """
    n, q, d = blocks.shape
    if d != np_.d:
        raise ValueError("block vectors do not match the chain")
    if np_.stage_count == 0:
        return np.ones((n, 1, 1))
    w = blocks @ np_.stages[0].T
    for stage in np_.stages[1:]:
        c_prev = w.shape[2]
        c_next = stage.shape[0]
        # p[m, (k, a)] = Pi_l[k, a * c_prev + m]: the factor b sits on the left
        p = stage.reshape(c_next, d, c_prev).transpose(2, 0, 1).reshape(c_prev, c_next * d)
        z = (w.reshape(-1, c_prev) @ p).reshape(n, -1, d)
        w = np.matmul(blocks, z.transpose(0, 2, 1)).reshape(n, -1, c_next)
    return w
