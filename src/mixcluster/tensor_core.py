"""Flattening conventions and partition enumeration shared by all estimators.

Everything here is deterministic and purely combinatorial.  The single global
convention is row-major flattening: the first tensor axis is most significant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Dense paths materialize d^t arrays; partition enumerators walk up to t^t or
# Bell-number many objects.  Fail loudly instead of exhausting memory.
DENSE_GUARD_T = 8
PARTITION_GUARD = 12


class SizeLimitError(ValueError):
    """A combinatorial or dense-tensor guard was exceeded."""


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

    @property
    def order(self) -> int:
        return len(self.factors)

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
