"""Unit and property tests for the plain rank/select bitvector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.succinct.bitvector import BitVector


def naive_rank1(bits, position):
    return sum(bits[:position])


def naive_select(bits, occurrence, value):
    seen = 0
    for index, bit in enumerate(bits):
        if bit == value:
            seen += 1
            if seen == occurrence:
                return index
    raise IndexError


class TestBasics:
    def test_empty(self):
        bv = BitVector([])
        assert len(bv) == 0
        assert bv.ones == 0
        assert bv.rank1(0) == 0

    def test_counts(self):
        bv = BitVector([1, 0, 1, 1, 0])
        assert bv.ones == 3
        assert bv.zeros == 2

    def test_access(self):
        bits = [1, 0, 0, 1]
        bv = BitVector(bits)
        assert [bv.access(i) for i in range(4)] == bits

    def test_rank_prefixes(self):
        bv = BitVector([1, 0, 1, 1, 0])
        assert [bv.rank1(i) for i in range(6)] == [0, 1, 1, 2, 3, 3]
        assert [bv.rank0(i) for i in range(6)] == [0, 0, 1, 1, 1, 2]

    def test_rank_bounds(self):
        bv = BitVector([1])
        with pytest.raises(IndexError):
            bv.rank1(2)
        with pytest.raises(IndexError):
            bv.rank1(-1)

    def test_select1(self):
        bv = BitVector([0, 1, 0, 1, 1])
        assert bv.select1(1) == 1
        assert bv.select1(2) == 3
        assert bv.select1(3) == 4

    def test_select0(self):
        bv = BitVector([0, 1, 0, 1, 1])
        assert bv.select0(1) == 0
        assert bv.select0(2) == 2

    def test_select_bounds(self):
        bv = BitVector([1, 0])
        with pytest.raises(IndexError):
            bv.select1(2)
        with pytest.raises(IndexError):
            bv.select1(0)
        with pytest.raises(IndexError):
            bv.select0(2)

    def test_paper_inclusive_rank(self):
        # rank_s(S, q) counts occurrences in the 1-based prefix S[1, q].
        bv = BitVector([0, 0, 1, 0, 0, 1, 1, 1, 1])  # S_I of Fig 2
        assert bv.rank0_inclusive(1) == 1
        assert bv.rank0_inclusive(4) == 3
        assert bv.rank1_inclusive(3) == 1

    def test_crosses_superblock_boundaries(self):
        bits = [i % 3 == 0 for i in range(5000)]
        bv = BitVector(bits)
        for position in (0, 63, 64, 511, 512, 513, 4999, 5000):
            assert bv.rank1(position) == naive_rank1(bits, position)

    def test_size_accounts_directory(self):
        bv = BitVector([1] * 1000)
        assert bv.size_in_bits() > 1000  # payload + directory


class TestProperties:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=600))
    def test_rank_matches_naive(self, bits):
        bv = BitVector(bits)
        for position in range(0, len(bits) + 1, max(1, len(bits) // 17)):
            assert bv.rank1(position) == naive_rank1(bits, position)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_select_matches_naive(self, bits):
        bv = BitVector(bits)
        for occurrence in range(1, bv.ones + 1):
            assert bv.select1(occurrence) == naive_select(bits, occurrence, 1)
        for occurrence in range(1, bv.zeros + 1):
            assert bv.select0(occurrence) == naive_select(bits, occurrence, 0)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_rank_select_inverse(self, bits):
        bv = BitVector(bits)
        for occurrence in range(1, bv.ones + 1):
            position = bv.select1(occurrence)
            assert bv.rank1(position + 1) == occurrence
            assert bv.access(position) == 1


class TestSelectDirectory:
    """The sampled select directory (every k-th set/clear position)."""

    def test_directory_is_lazy(self):
        bv = BitVector([1, 0, 1] * 100)
        assert bv.select_directory_bits() == 0  # rank-only users pay nothing
        bv.select1(1)
        assert bv.select_directory_bits() > 0
        bv.select0(1)
        assert bv.select_directory_bits() == 64 * (
            len(bv._select1_samples) + len(bv._select0_samples)
        )

    def test_sampled_positions_exact_on_boundaries(self):
        from repro.succinct.bitvector import _SELECT_SAMPLE

        # All-ones vector: the j-th one sits at position j-1, including
        # every occurrence that lands exactly on a directory sample.
        bv = BitVector([1] * (3 * _SELECT_SAMPLE + 5))
        for occurrence in (1, _SELECT_SAMPLE, _SELECT_SAMPLE + 1,
                           2 * _SELECT_SAMPLE, 3 * _SELECT_SAMPLE + 5):
            assert bv.select1(occurrence) == occurrence - 1

    def test_sparse_tail_zero_not_phantom(self):
        # A non-word-aligned vector must not invent zeros in the slack
        # bits of its final backing word.
        bits = [1] * 130 + [0]
        bv = BitVector(bits)
        assert bv.select0(1) == 130
        with pytest.raises(IndexError):
            bv.select0(2)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=700))
    def test_directory_select_matches_naive(self, bits):
        bv = BitVector(bits)
        for occurrence in range(1, bv.ones + 1):
            assert bv.select1(occurrence) == naive_select(bits, occurrence, 1)
        for occurrence in range(1, bv.zeros + 1):
            assert bv.select0(occurrence) == naive_select(bits, occurrence, 0)

    def test_size_model_unchanged_by_directory(self):
        # The samples are an acceleration cache, not part of the paper's
        # succinct size model (like the compiled flat programs).
        bits = [1, 0] * 600
        cold = BitVector(bits).size_in_bits()
        warm = BitVector(bits)
        warm.select1(5)
        warm.select0(5)
        assert warm.size_in_bits() == cold
