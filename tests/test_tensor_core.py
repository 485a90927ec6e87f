import itertools
import math

import numpy as np
import pytest

from conftest import unordered_partitions
from mixcluster.oracles import (
    Rank1Term,
    SizeLimitError,
    count_nonempty,
    labeled_partitions,
    outer_power,
    place_blocks,
    sym_interleavings,
)


def _stirling2(n, c):
    if n == c == 0:
        return 1
    if n == 0 or c == 0:
        return 0
    return c * _stirling2(n - 1, c) + _stirling2(n - 1, c - 1)


class TestLabeledPartitions:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_count_is_t_to_the_t(self, t):
        assert sum(1 for _ in labeled_partitions(t)) == t**t

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_parts_disjoint_with_full_union(self, t):
        for parts in labeled_partitions(t):
            flat = [i for s in parts for i in s]
            assert sorted(flat) == list(range(t))
            assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_nonempty_counts_match_stirling(self, t):
        by_c = {}
        for parts in labeled_partitions(t):
            c = count_nonempty(parts)
            by_c[c] = by_c.get(c, 0) + 1
        for c, n in by_c.items():
            expected = _stirling2(t, c) * math.factorial(t) // math.factorial(t - c)
            assert n == expected

    def test_deterministic_order(self):
        assert list(labeled_partitions(2)) == list(labeled_partitions(2))


class TestCountNonempty:
    def test_single_slot(self):
        assert count_nonempty((frozenset({0, 1}), frozenset())) == 1

    def test_two_singletons(self):
        assert count_nonempty((frozenset({0}), frozenset({1}))) == 2

    def test_with_empty_slot(self):
        assert count_nonempty((frozenset({0, 2}), frozenset({1}), frozenset())) == 2


class TestUnorderedPartitions:
    def test_singleton_set(self):
        assert sum(1 for _ in unordered_partitions(frozenset({0}), 2)) == 1

    def test_pair_two_slots(self):
        assert sum(1 for _ in unordered_partitions(frozenset({0, 1}), 2)) == 2

    def test_empty_set(self):
        assert sum(1 for _ in unordered_partitions(frozenset(), 3)) == 1

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            list(unordered_partitions(frozenset(range(13)), 2))

    @pytest.mark.parametrize("n,t", [(3, 2), (3, 3), (4, 2), (4, 4)])
    def test_matches_labeled_dedup(self, n, t):
        # brute-force oracle: dedup labeled slot assignments up to part reorder
        labeled = set()
        for word in itertools.product(range(t), repeat=n):
            parts = tuple(frozenset(i for i, w in enumerate(word) if w == j) for j in range(t))
            labeled.add(frozenset((p, sum(1 for q in parts if q == p)) for p in set(parts)))
        ours = sum(1 for _ in unordered_partitions(frozenset(range(n)), t))
        assert ours == len(labeled)


class TestSymInterleavings:
    def test_two_singles(self):
        assert sum(1 for _ in sym_interleavings((1, 1))) == 2

    def test_multinomial_count(self):
        assert sum(1 for _ in sym_interleavings((2, 1))) == 3
        total = sum(1 for _ in sym_interleavings((2, 2, 1)))
        assert total == math.factorial(5) // (2 * 2 * 1)

    def test_single_block(self):
        assert sum(1 for _ in sym_interleavings((3,))) == 1

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            list(sym_interleavings((7, 7)))


class TestRank1Term:
    def test_dense_matches_outer(self, rng):
        u, w = rng.standard_normal(3), rng.standard_normal(3)
        term = Rank1Term(2.0, (u, w))
        assert np.allclose(term.dense(), 2.0 * np.tensordot(u, w, axes=0))

    def test_outer_power(self, rng):
        x = rng.standard_normal(3)
        assert np.allclose(outer_power(x, 3), np.einsum("i,j,k->ijk", x, x, x))

    def test_place_blocks_reassembles(self, rng):
        u, w = rng.standard_normal(2), rng.standard_normal(2)
        got = place_blocks(2, 2, [((0,), u), ((1,), w)])
        assert np.allclose(got, np.outer(u, w))
        m = rng.standard_normal((2, 2))
        got = place_blocks(3, 2, [((1,), u), ((2, 0), m)])
        assert np.array_equal(got, np.einsum("j,ki->ijk", u, m))
