"""Plain bitvector with a constant-time rank directory.

This is Jacobson's classic two-level rank structure [28]: the bit payload
is kept verbatim (1 bit per input bit) and a directory of superblock and
block counters is added so that

* ``rank1(i)`` — ones in positions ``[0, i)`` — is O(1),
* ``select1(k)`` / ``select0(k)`` are near-constant: a **sampled select
  directory** (the position of every ``k``-th set/clear bit, built
  lazily on first use) brackets the answer between two adjacent
  samples, and a rank binary search finishes inside the bracket — in
  place of the original O(log n) search over the whole vector. Wavelet
  tree and XBW lookups, which lean on select when walking back up,
  inherit the win.

It is both a useful structure on its own (wavelet tree internals default
to it) and the uncompressed baseline against which :mod:`repro.succinct.rrr`
is evaluated.

Rank/select conventions follow the paper's pseudo-code: positions are
1-based in :meth:`rank1_inclusive` (``rank_s(S, q)`` counts occurrences in
``S[1, q]``), while the Pythonic 0-based half-open :meth:`rank1` is what
internal code uses.
"""

from __future__ import annotations

from typing import Iterable

from repro.succinct.bitbuffer import BitBuffer

_BLOCK_BITS = 64          # one backing word per block
_SUPERBLOCK_BLOCKS = 8    # 512 bits per superblock
_SELECT_SAMPLE = 64       # one sampled position per 64 target bits


class BitVector:
    """Static bitvector supporting access / rank / select.

    Parameters
    ----------
    bits:
        Iterable of 0/1 (or a prebuilt :class:`BitBuffer`).
    """

    def __init__(self, bits: Iterable[int] | BitBuffer):
        if isinstance(bits, BitBuffer):
            self._buffer = bits
        else:
            self._buffer = BitBuffer(bits)
        self._length = len(self._buffer)
        self._build_directory()

    def _build_directory(self) -> None:
        words = self._buffer.words()
        self._superblock_ranks: list[int] = []
        self._block_ranks: list[int] = []
        running = 0
        for block_index, word in enumerate(words):
            if block_index % _SUPERBLOCK_BLOCKS == 0:
                self._superblock_ranks.append(running)
            self._block_ranks.append(running - self._superblock_ranks[-1])
            running += word.bit_count()
        self._total_ones = running
        # Sampled select directories, built lazily on the first select:
        # rank-only users (the common case) never pay for them.
        self._select1_samples: list[int] | None = None
        self._select0_samples: list[int] | None = None

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"BitVector(length={self._length}, ones={self._total_ones})"

    @property
    def ones(self) -> int:
        """Total number of set bits."""
        return self._total_ones

    @property
    def zeros(self) -> int:
        """Total number of clear bits."""
        return self._length - self._total_ones

    def access(self, index: int) -> int:
        """Bit at 0-based ``index``."""
        return self._buffer.get_bit(index)

    def rank1(self, position: int) -> int:
        """Number of ones in the half-open range ``[0, position)``."""
        if position < 0 or position > self._length:
            raise IndexError(f"rank position {position} outside [0, {self._length}]")
        if position == 0:
            return 0
        word_index = position >> 6
        offset = position & 63
        if word_index >= len(self._block_ranks):
            return self._total_ones
        superblock = word_index // _SUPERBLOCK_BLOCKS
        count = self._superblock_ranks[superblock] + self._block_ranks[word_index]
        if offset:
            word = self._buffer.words()[word_index]
            count += (word & ((1 << offset) - 1)).bit_count()
        return count

    def rank0(self, position: int) -> int:
        """Number of zeros in ``[0, position)``."""
        if position < 0 or position > self._length:
            raise IndexError(f"rank position {position} outside [0, {self._length}]")
        return position - self.rank1(position)

    def rank1_inclusive(self, position_1based: int) -> int:
        """Paper-style ``rank1(S, q)``: ones in the 1-based prefix ``S[1, q]``."""
        return self.rank1(position_1based)

    def rank0_inclusive(self, position_1based: int) -> int:
        """Paper-style ``rank0(S, q)``: zeros in the 1-based prefix ``S[1, q]``."""
        return self.rank0(position_1based)

    def select1(self, occurrence: int) -> int:
        """0-based position of the ``occurrence``-th one (1-based count).

        ``select1(k)`` is the smallest ``p`` with ``rank1(p + 1) == k``.
        """
        if occurrence < 1 or occurrence > self._total_ones:
            raise IndexError(f"select1({occurrence}) outside [1, {self._total_ones}]")
        return self._select(occurrence, want_one=True)

    def select0(self, occurrence: int) -> int:
        """0-based position of the ``occurrence``-th zero (1-based count)."""
        total_zeros = self._length - self._total_ones
        if occurrence < 1 or occurrence > total_zeros:
            raise IndexError(f"select0({occurrence}) outside [1, {total_zeros}]")
        return self._select(occurrence, want_one=False)

    def _build_select_samples(self, want_one: bool) -> list[int]:
        """Positions of the 1st, (k+1)-th, (2k+1)-th, ... target bit
        (k = :data:`_SELECT_SAMPLE`), collected in one word scan."""
        samples: list[int] = []
        seen = 0
        next_sample = 1  # 1-based occurrence the next sample records
        for word_index, word in enumerate(self._buffer.words()):
            if not want_one:
                # Mask to the payload: the final word's slack bits are
                # neither ones nor zeros of the vector.
                valid = min(64, self._length - (word_index << 6))
                word = ~word & ((1 << valid) - 1)
            count = word.bit_count()
            while seen + count >= next_sample:
                # Position of the (next_sample - seen)-th set bit in word.
                needed = next_sample - seen
                probe = word
                for _ in range(needed - 1):
                    probe &= probe - 1  # clear lowest set bits
                samples.append((word_index << 6) + (probe & -probe).bit_length() - 1)
                next_sample += _SELECT_SAMPLE
            seen += count
        return samples

    def _select(self, occurrence: int, want_one: bool) -> int:
        """Bracket the answer between two adjacent directory samples,
        then binary-search rank inside the bracket (near-constant: the
        bracket spans one sampling interval, not the whole vector)."""
        if want_one:
            samples = self._select1_samples
            if samples is None:
                samples = self._select1_samples = self._build_select_samples(True)
        else:
            samples = self._select0_samples
            if samples is None:
                samples = self._select0_samples = self._build_select_samples(False)
        bucket = (occurrence - 1) // _SELECT_SAMPLE
        offset = (occurrence - 1) % _SELECT_SAMPLE
        low = samples[bucket]
        if offset == 0:
            return low
        high = samples[bucket + 1] if bucket + 1 < len(samples) else self._length
        while low < high:
            middle = (low + high) // 2
            count = self.rank1(middle + 1) if want_one else self.rank0(middle + 1)
            if count < occurrence:
                low = middle + 1
            else:
                high = middle
        return low

    def select_directory_bits(self) -> int:
        """Size of the (lazily built) select acceleration directory.

        Reported separately from :meth:`size_in_bits`: the samples are a
        host-side acceleration cache, not part of the paper's succinct
        size model (exactly like the compiled flat programs of
        :mod:`repro.pipeline.flat`)."""
        built = (self._select1_samples or []), (self._select0_samples or [])
        return 64 * sum(len(samples) for samples in built)

    def size_in_bits(self) -> int:
        """Payload + directory size in bits (what tables report)."""
        directory = 64 * len(self._superblock_ranks) + 16 * len(self._block_ranks)
        return self._length + directory

    def trace_access(self, index: int) -> list[int]:
        """Byte addresses an access touches: the payload word."""
        directory_bytes = 8 * len(self._superblock_ranks) + 2 * len(self._block_ranks)
        return [directory_bytes + (index >> 6) * 8]

    def trace_rank(self, position: int) -> list[int]:
        """Byte addresses a rank touches: directory entries + payload word."""
        if position == 0:
            return []
        word_index = min(position - 1, self._length - 1) >> 6
        superblock = word_index // _SUPERBLOCK_BLOCKS
        directory_bytes = 8 * len(self._superblock_ranks) + 2 * len(self._block_ranks)
        return [
            superblock * 8,
            8 * len(self._superblock_ranks) + word_index * 2,
            directory_bytes + word_index * 8,
        ]

    def payload(self) -> BitBuffer:
        """The raw bit payload."""
        return self._buffer
