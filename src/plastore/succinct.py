"""Bit-level building blocks: plain bitvectors with rank/select support,
fixed-width packed integer arrays, and Elias-Fano encoding of monotone
integer sequences.

Conventions used throughout the package:

* bit positions are 0-indexed,
* ordinals handed to select-style operations are 1-indexed,
* every structure is immutable after construction and safe for any number
  of concurrent readers.

Every stored type is a ``Stored``: it lists its bitvectors and its u32
tables (``_parts``), and is serialized as the words of the bitvectors,
then the tables, in that order (``to_bytes_raw``).  Its sizes follow
from the same list: ``payload_bits`` and ``padding_bits`` from the
bitvectors, ``aux_bits`` from the tables.  The raw form omits every
length derivable from context: the container header supplies the lengths
back to ``from_bytes_raw``, which reads every word array through one
checked reader (``read_words``) and raises FormatError when the payload
is too short.

One directory type, ``RankSelectIndex``, serves every bitvector that is
ranked or selected.  Its rank block counts and select samples are always
in memory; its owner chooses which are stored.  The rs X bitvector
stores both, and load does not rebuild them, since rescanning a
universe-sized vector costs more than the rest of the load: it ranks
each stored select sample once against the stored block counts, and
trusts those counts.  Elias-Fano high bits store
only the select samples after the first, and load rebuilds the whole
directory from the high bits and checks it against them.  The
Elias-Fano predecessor search (``EliasFano.count_at_most``) bisects
those rebuilt rank block counts, so it reads no table that load did not
check.

Encode writes every bitvector through one numpy path in uint64, so any
value below 2^64: ``pack_fields`` lays down (value, width) fields from
their prefix-sum offsets, ORing each into its word and the next with one
``bitwise_or.reduceat``, and ``RankSelectIndex.from_ones`` builds a
vector and its whole directory from the sorted one-bit positions, the
block counts by ``searchsorted`` and the samples every
SELECT_SAMPLE_RATE-th position, without a scan of the words (load
rebuilds an Elias-Fano directory by that scan, ``_scan_directory``).
The words stay lists of Python ints for the queries; from_ones writes
only the words that hold a one into a list of zeros, and ``write_words``
serializes words and tables through array.array.

A whole Elias-Fano sequence is decoded either by ``select_run`` in Python
integers, or by one numpy int64 kernel (``EliasFano.values_array``) when
it is long enough to pay for the kernel and its universe keeps every
value far below 2^63; ``values()`` reads through whichever applies.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_right
from itertools import islice

import numpy as np

from .errors import FormatError

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

# Directory parameters are fixed by the serialization format (version 2):
# one cumulative rank count per 512-bit block, one sampled position per
# 512 one-bits (the first of which is not stored).
RANK_BLOCK_BITS = 512
SELECT_SAMPLE_RATE = 512
_BLOCK_WORDS = RANK_BLOCK_BITS // WORD_BITS

# The numpy kernel decodes a whole Elias-Fano sequence of at least
# _KERNEL_MIN_VALUES values (below, select_run is faster) over a universe
# of at most _KERNEL_UNIVERSE, which keeps every value it forms, and every
# difference of two, below 2^62 in magnitude.
_KERNEL_MIN_VALUES = 80
_KERNEL_UNIVERSE = 1 << 60


def read_words(data, off: int, count: int, code: str = "Q"):
    """`count` little-endian words ("Q": u64, "I": u32) of `data` from byte
    `off` on, and the offset after them; FormatError if `data` is short."""
    end = off + count * struct.calcsize(code)
    if end > len(data):
        raise FormatError(f"component truncated: needs {end} bytes, has {len(data)}")
    return list(struct.unpack_from(f"<{count}{code}", data, off)), end


def write_words(values, code: str = "Q"):
    """The inverse of read_words: `values` as little-endian words ("Q":
    u64, "I": u32) in an array.array, ready for a join.  It converts a
    list in one call, without the argument tuple that struct.pack(*values)
    builds, so serializing a universe-sized `rs` vector allocates one
    transient buffer of its size fewer."""
    a = array(code, values)
    if sys.byteorder == "big":
        a.byteswap()
    return a


def unpack_fields(words, count: int, width: int):
    """The `count` fields of `width` < 64 bits laid down from bit 0 of
    `words` (u64 words, least significant bit first), as an int64 array."""
    if not width or not count:
        return np.zeros(count, dtype=np.int64)
    w = np.array(words + [0], dtype=np.uint64)  # a zero word for the last field's straddle read
    pos = np.arange(0, count * width, width, dtype=np.int64)
    wi, shift = pos >> 6, (pos & 63).astype(np.uint64)
    # the straddling word shifted in two steps: a shift by 64 is undefined
    fields = (w[wi] >> shift) | ((w[wi + 1] << 1) << (63 - shift))
    return (fields & ((1 << width) - 1)).view(np.int64)


def pack_fields(values, widths):
    """The inverse of unpack_fields: (words, nbits) of the fields values[i]
    laid down in widths[i] bits one after another from bit 0, least
    significant bit first, with the words a list of Python ints.  `widths`
    is one int for every field or a sequence of them; `values` is a uint64
    array, or a sequence of ints, range-checked before its conversion.
    Each field is ORed into the word it starts in and, where it straddles,
    into the next (_or_words).  ValueError for the first value that does
    not fit in its width, or in 64 bits."""
    count = len(values)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), (count,))
    if not isinstance(values, np.ndarray):
        if count and (min(values) < 0 or max(values) >> 64):
            v, w = next((v, w) for v, w in zip(values, widths.tolist()) if v >> min(w, 64))
            raise ValueError(f"value {v} does not fit in {min(w, 64)} bits")
        values = np.array(values, dtype=np.uint64)
    over = (widths < 64) & (values >> np.minimum(widths, 63).astype(np.uint64) != 0)
    if over.any():
        i = int(over.argmax())
        raise ValueError(f"value {values[i]} does not fit in {widths[i]} bits")
    ends = np.cumsum(widths)
    nbits = int(ends[-1]) if count else 0
    pos = ends - widths
    shift = (pos & 63).astype(np.uint64)
    words = np.zeros((nbits >> 6) + 2, dtype=np.uint64)  # room for the straddle of a field ending the last word
    _or_words(words, pos >> 6, values << shift)
    # the straddling bits, shifted in two steps: a shift by 64 is undefined
    _or_words(words, (pos >> 6) + 1, (values >> 1) >> (63 - shift))
    return words[:(nbits + 63) >> 6].tolist(), nbits


def _or_words(words, wi, parts):
    """OR each of `parts` into words[wi], for non-decreasing word indices
    `wi` (_word_runs)."""
    at, ored = _word_runs(wi, parts)
    words[at] |= ored


def _word_runs(wi, parts):
    """(indices, values) of the words that `parts` touch, for non-decreasing
    word indices `wi`: each distinct index once, with the OR of its parts
    by one bitwise_or.reduceat over each run of equal indices."""
    first = np.flatnonzero(np.diff(wi, prepend=-1))
    return wi[first], np.bitwise_or.reduceat(parts, first)


def _ones(length: int, positions):
    """(words, directory) of a `length`-bit vector with ones at
    `positions`, a strictly increasing int64 array in [0, length): the
    words a list of Python ints, and the directory as _scan_directory
    gives it, its block counts by searchsorted and its samples every
    SELECT_SAMPLE_RATE-th position.  Only the words that hold a one are
    written into a list of zeros: a zeroed uint64 array of the whole
    length, converted by tolist() and freed, would cost a universe-sized
    `rs` vector a page fault per 4 KiB on every encode."""
    words = [0] * ((length + 63) >> 6)
    at, ored = _word_runs(positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64))
    for i, w in zip(at.tolist(), ored.tolist()):
        words[i] = w
    counts = np.searchsorted(positions, np.arange(0, length, RANK_BLOCK_BITS))
    return words, (counts.tolist(), positions[::SELECT_SAMPLE_RATE].tolist(), len(positions))


def bit_lengths(a):
    """int.bit_length of each element of a non-negative int64 or uint64
    array: the float64 exponent (at most 64), which rounding makes one too
    large just below a power of two above 2^53, less one where the value
    is below 2^(exponent - 1)."""
    e = np.minimum(np.frexp(a.astype(np.float64))[1], 64).astype(np.int64)
    return e - ((e > 0) & (a >> np.maximum(e - 1, 0).astype(a.dtype) == 0))


# _SELECT_IN_BYTE[b][r]: position of the (r+1)-th 1-bit of byte b
_SELECT_IN_BYTE = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _select_in_word(w: int, k: int) -> int:
    """Bit position of the k-th 1-bit (1-indexed) of a word holding at
    least k of them: halve the word three times, then look the byte up."""
    pos = 0
    c = (w & 0xFFFFFFFF).bit_count()
    if k > c:
        k -= c
        w >>= 32
        pos = 32
    c = (w & 0xFFFF).bit_count()
    if k > c:
        k -= c
        w >>= 16
        pos += 16
    c = (w & 0xFF).bit_count()
    if k > c:
        k -= c
        w >>= 8
        pos += 8
    return pos + _SELECT_IN_BYTE[w & 0xFF][k - 1]


class Stored:
    """A structure stored as the words of its bitvectors, then its u32
    tables; a subclass lists both in `_parts`."""

    __slots__ = ()

    def _parts(self):
        """(bitvectors, u32 tables), each in serialized order."""
        raise NotImplementedError

    def payload_bits(self) -> int:
        return sum(bv.nbits for bv in self._parts()[0])

    def padding_bits(self) -> int:
        return sum(64 * len(bv.words) - bv.nbits for bv in self._parts()[0])

    def aux_bits(self) -> int:
        return 32 * sum(len(t) for t in self._parts()[1])

    def to_bytes_raw(self) -> bytes:
        bitvectors, tables = self._parts()
        return b"".join([write_words(bv.words) for bv in bitvectors] + [write_words(t, "I") for t in tables])


class BitVector(Stored):
    """Immutable packed sequence of bits."""

    __slots__ = ("words", "nbits")

    def __init__(self, words, nbits: int):
        self.words = words
        self.nbits = nbits

    @classmethod
    def from_ones(cls, length: int, one_positions) -> "BitVector":
        """Bitvector of `length` zeros with ones at the given positions."""
        return RankSelectIndex.from_ones(length, one_positions).owner

    @classmethod
    def from_fields(cls, fields) -> "BitVector":
        """The (value, width) fields laid down one after another, least
        significant bit first (pack_fields); ValueError if a value does not
        fit its width or 64 bits."""
        fields = list(fields)
        values, widths = zip(*fields) if fields else ((), ())
        return cls(*pack_fields(values, widths))

    def get(self, pos: int) -> int:
        if not 0 <= pos < self.nbits:
            raise IndexError(f"bit position {pos} out of range [0, {self.nbits})")
        return (self.words[pos >> 6] >> (pos & 63)) & 1

    def read_field(self, pos: int, width: int) -> int:
        """Read `width` bits starting at `pos` as an unsigned integer; any
        width, so one call reads a run of packed fields."""
        if width == 0:
            return 0
        if pos < 0 or pos + width > self.nbits:
            raise IndexError(f"field [{pos}, {pos + width}) out of range")
        words = self.words
        wi = pos >> 6
        chunk = words[wi] >> (pos & 63)
        got = 64 - (pos & 63)
        while got < width:
            wi += 1
            chunk |= words[wi] << got
            got += 64
        return chunk & ((1 << width) - 1)

    def __len__(self) -> int:
        return self.nbits

    # -- serialization ----------------------------------------------------

    def _parts(self):
        return (self,), ()

    @classmethod
    def from_bytes_raw(cls, data, off: int, nbits: int):
        words, off = read_words(data, off, (nbits + 63) // 64)
        return cls(words, nbits), off


def _ones_error(ones: int) -> FormatError:
    return FormatError(f"bitvector does not hold the {ones} one-bits its directory promises")


def _scan_directory(bv: BitVector):
    """One pass over the words: the cumulative count before each rank
    block, the position of every SELECT_SAMPLE_RATE-th 1-bit, and the
    count of ones."""
    counts = []
    samples = []
    ones = 0
    for wi, w in enumerate(bv.words):
        if wi % _BLOCK_WORDS == 0:
            counts.append(ones)
        if w:
            c = w.bit_count()
            need = len(samples) * SELECT_SAMPLE_RATE + 1 - ones
            if need <= c:  # a word holds at most one sampled 1-bit
                samples.append((wi << 6) + _select_in_word(w, need))
            ones += c
    return counts, samples, ones


class RankSelectIndex(Stored):
    """Rank and sampled select directories over a BitVector: the count of
    one-bits before each RANK_BLOCK_BITS-bit block, and the position of
    every SELECT_SAMPLE_RATE-th one-bit.

    rank1 touches one block count plus at most eight word popcounts, and
    count_at_most, the predecessor count the rs container searches X
    with, is one rank1 that refuses a rank the block counts cannot give.
    select1 starts from the nearest sample and scans forward by whole
    words, however many (tens of thousands on a sparse universe-sized
    vector); select_run scans on from there, skipping every rank block
    without a one-bit.  Both tables are kept in memory; which of them is
    stored is the owner's choice (`_parts`).  The first sample is the
    first one-bit of the vector, so it is never stored.
    """

    __slots__ = ("owner", "block_counts", "samples", "total_ones")

    def __init__(self, owner: BitVector, directory=None):
        """`directory` is (block counts, samples, count of ones), as
        `_scan_directory` returns them; scanned from `owner` if omitted."""
        self.owner = owner
        if directory is None:
            directory = _scan_directory(owner)
        self.block_counts, self.samples, self.total_ones = directory

    @classmethod
    def from_ones(cls, length: int, one_positions) -> "RankSelectIndex":
        """The directory over a `length`-bit vector with ones at the given
        positions (ints, in any order), built from the positions without a
        scan of the words; ValueError for the first position outside
        [0, length)."""
        positions = list(one_positions)
        if positions and (min(positions) < 0 or max(positions) >= length):
            p = next(p for p in positions if not 0 <= p < length)
            raise ValueError(f"bit position {p} out of range [0, {length})")
        p = np.array(positions, dtype=np.int64)
        if (p[1:] <= p[:-1]).any():  # sort and drop repeats only where needed
            p = np.unique(p)
        words, directory = _ones(length, p)
        return cls(BitVector(words, length), directory)

    def rank1(self, pos: int) -> int:
        """Count of 1-bits in positions [0, pos)."""
        if not 0 <= pos <= self.owner.nbits:
            raise IndexError(f"rank position {pos} out of range [0, {self.owner.nbits}]")
        words = self.owner.words
        b = pos // RANK_BLOCK_BITS
        if b >= len(self.block_counts):
            return self.total_ones
        c = self.block_counts[b]
        target = pos >> 6
        for wi in range(b * _BLOCK_WORDS, target):
            c += words[wi].bit_count()
        rem = pos & 63
        if rem:
            c += (words[target] & ((1 << rem) - 1)).bit_count()
        return c

    def count_at_most(self, t: int, shift: int = 0, probes=None) -> int:
        """How many one-bits sit at positions <= t: one rank1, which
        `probes` counts as one primitive and no search step.  Unlike
        EliasFano.count_at_most, only shift 0 is supported (ValueError
        otherwise).  FormatError if the block counts rank past the count of
        ones, or rank none although a one-bit comes before the position."""
        if shift:
            raise ValueError(f"a rank counts positions, not shifted values: shift {shift} is not 0")
        if probes is not None:
            probes.primitives += 1
        pos = min(max(t + 1, 0), self.owner.nbits)
        k = self.rank1(pos)
        if k > self.total_ones or (not k and self.samples and self.samples[0] < pos):
            raise FormatError(f"rank directory counts {k} of {self.total_ones} one-bits at positions <= {t}: "
                              "its block counts are corrupt")
        return k

    def select1(self, k: int) -> int:
        """Position of the k-th 1-bit, 1-indexed."""
        if not 1 <= k <= self.total_ones:
            raise IndexError(f"select ordinal {k} out of range [1, {self.total_ones}]")
        j = (k - 1) // SELECT_SAMPLE_RATE
        pos = self.samples[j]
        need = k - (j * SELECT_SAMPLE_RATE + 1)
        if need == 0:
            return pos
        words = self.owner.words
        wi = pos >> 6
        try:
            w = words[wi] & ~((1 << ((pos & 63) + 1)) - 1)
            while True:
                c = w.bit_count()
                if c >= need:
                    return (wi << 6) + _select_in_word(w, need)
                need -= c
                wi += 1
                w = words[wi]
        except IndexError:
            raise _ones_error(self.total_ones) from None

    def select_run(self, k: int, count: int) -> list:
        """Positions of the k-th to (k+count-1)-th 1-bits: one select1,
        then a forward scan for each next 1-bit."""
        if count < 1:
            return []
        if k < 1 or k + count - 1 > self.total_ones:
            raise IndexError(f"select run [{k}, {k + count - 1}] out of range [1, {self.total_ones}]")
        pos = self.select1(k)
        out = [pos]
        words = self.owner.words
        counts = self.block_counts
        wi = pos >> 6
        try:
            w = words[wi] & ~((2 << (pos & 63)) - 1)
            for _ in range(count - 1):
                while not w:
                    wi += 1
                    if not wi % _BLOCK_WORDS:
                        b = wi // _BLOCK_WORDS
                        if b < len(counts):
                            # entering a block: skip every following block without a 1-bit
                            wi = max(wi, (bisect_right(counts, counts[b]) - 1) * _BLOCK_WORDS)
                    w = words[wi]
                out.append((wi << 6) | ((w & -w).bit_length() - 1))
                w &= w - 1
        except IndexError:
            raise _ones_error(self.total_ones) from None
        return out

    # -- serialization ----------------------------------------------------

    def _parts(self):
        return (self.owner,), (self.block_counts, self.samples[1:])

    @classmethod
    def from_bytes_raw(cls, data, off: int, nbits: int, ones: int):
        """The directory over an `nbits`-bit vector holding `ones` one-bits,
        with both tables as stored: the vector is not rescanned, only its
        last block is counted, and each stored sample is ranked once.
        FormatError if that count is not `ones`, or if the j-th sample is
        not a one-bit that the block counts rank j*SELECT_SAMPLE_RATE."""
        owner, off = BitVector.from_bytes_raw(data, off, nbits)
        nblocks = (nbits + RANK_BLOCK_BITS - 1) // RANK_BLOCK_BITS
        counts, off = read_words(data, off, nblocks, "I")
        tail = owner.words[(nblocks - 1) * _BLOCK_WORDS:]
        if (counts[-1] + sum(w.bit_count() for w in tail) if nblocks else 0) != ones:
            raise _ones_error(ones)
        samples = []
        if ones:
            first = next(((wi << 6) + (w & -w).bit_length() - 1 for wi, w in enumerate(owner.words) if w), None)
            if first is None:
                raise FormatError(f"select directory for {ones} one-bits over an all-zero bitvector")
            samples, off = read_words(data, off, (ones - 1) // SELECT_SAMPLE_RATE, "I")
            samples.insert(0, first)
        rs = cls(owner, (counts, samples, ones))
        for j, pos in enumerate(samples[1:], 1):
            if not (pos < nbits and owner.get(pos) and rs.rank1(pos) == j * SELECT_SAMPLE_RATE):
                raise FormatError(f"select sample {j} at {pos} is not the one-bit the block counts rank "
                                  f"{j * SELECT_SAMPLE_RATE}")
        return rs, off


class PackedIntArray(Stored):
    """Immutable array of fixed-width non-negative integers, concatenated
    in one bitvector."""

    __slots__ = ("width", "count", "bits")

    def __init__(self, width: int, count: int, bits: BitVector):
        self.width = width
        self.count = count
        self.bits = bits

    @classmethod
    def from_values(cls, values, width: int) -> "PackedIntArray":
        """`values` (a uint64 array or a sequence of ints) in `width` bits
        each (pack_fields)."""
        return cls(width, len(values), BitVector(*pack_fields(values, width)))

    def get(self, i: int) -> int:
        if not 0 <= i < self.count:
            raise IndexError(f"index {i} out of range [0, {self.count})")
        width = self.width
        return self.bits.read_field(i * width, width)

    def __len__(self) -> int:
        return self.count

    def _parts(self):
        return (self.bits,), ()

    @classmethod
    def from_bytes_raw(cls, data, off: int, count: int, width: int):
        bits, off = BitVector.from_bytes_raw(data, off, count * width)
        return cls(width, count, bits), off


class EliasFano(Stored):
    """Elias-Fano encoding of a non-decreasing integer sequence.

    Each value v < universe splits into `low_width` low bits, stored
    packed, and a high part encoded in unary in the bitvector of
    `high_rs`: the k-th value (0-indexed) sets bit (v >> low_width) + k.
    select is one select1 on the high bits plus one packed read.
    count_at_most, the predecessor search, bounds every value from below
    by its high part, read from the rank directory and at most one rank
    block of high bits, and reads exact values only where that bound
    cannot decide (Vigna, "Quasi-succinct indices", WSDM 2013, with the
    rank-block counts of Gonzalez, Grabowski, Makinen & Navarro, WEA
    2005).  Of `high_rs`'s directory only the select samples after the
    first are stored; load rebuilds the directory from the high bits and
    refuses a payload whose count of ones is not n_values or whose stored
    samples differ from the rebuilt ones.
    """

    __slots__ = ("n_values", "universe", "low_width", "lows", "high_rs")

    def __init__(self, n_values, universe, low_width, lows, high_rs):
        self.n_values = n_values
        self.universe = universe
        self.low_width = low_width
        self.lows = lows
        self.high_rs = high_rs

    @classmethod
    def _empty(cls, universe):
        return cls(0, universe, 0, PackedIntArray(0, 0, BitVector([], 0)), RankSelectIndex(BitVector([], 0)))

    @staticmethod
    def shape(n: int, universe: int):
        """(low_width, length of the high bits) of n >= 1 values below
        universe >= 1: low_width = floor(log2(universe / n)), or 0 when
        universe < n."""
        lw = max(0, (universe // n).bit_length() - 1)
        return lw, n + ((universe - 1) >> lw)

    @classmethod
    def encode(cls, values, universe: int) -> "EliasFano":
        """The non-decreasing ints `values`, each in [0, universe), for a
        universe of at most 2^64; ValueError otherwise."""
        values = list(values)
        n = len(values)
        if n == 0 or universe == 0:
            if n > 0:
                raise ValueError("non-empty sequence needs universe >= 1")
            return cls._empty(universe)
        if universe < 1:
            raise ValueError("universe must be >= 1")
        if universe > 1 << 64:
            raise ValueError(f"universe {universe} exceeds 2^64")
        a = None
        if min(values) >= 0 and max(values) < universe:  # checked before the conversion
            a = np.array(values, dtype=np.uint64)
        if a is None or (a[1:] < a[:-1]).any():
            for v, prev in zip(values, [0] + values):  # the first value out of order or out of range
                if v < prev:
                    raise ValueError("sequence must be non-decreasing")
                if v >= universe:
                    raise ValueError(f"value {v} outside [0, {universe})")
        lw, high_len = cls.shape(n, universe)
        # the high parts shifted in two steps: lw may be 64, and a shift by 64 is undefined
        highs = (a >> np.uint64(lw // 2)) >> np.uint64(lw - lw // 2)
        words, directory = _ones(high_len, highs.astype(np.int64) + np.arange(n))
        lows = PackedIntArray.from_values(a & np.uint64((1 << lw) - 1), lw)
        return cls(n, universe, lw, lows, RankSelectIndex(BitVector(words, high_len), directory))

    def select(self, k: int) -> int:
        """k-th encoded value, 1-indexed."""
        if not 1 <= k <= self.n_values:
            raise IndexError(f"ordinal {k} out of range [1, {self.n_values}]")
        lw = self.low_width
        return ((self.high_rs.select1(k) - (k - 1)) << lw) | self.lows.bits.read_field((k - 1) * lw, lw)

    def select_run(self, k: int, count: int) -> list:
        """Values k to k+count-1 (1-indexed): one select run on the high
        bits, and one read of the lows per 64 values, so that a run costs
        time linear in its length."""
        highs = iter(self.high_rs.select_run(k, count))
        lw = self.low_width
        mask = (1 << lw) - 1
        read = self.lows.bits.read_field
        out = []
        j = k - 1
        end = j + count
        while j < end:
            m = min(64, end - j)
            lows = read(j * lw, m * lw)
            for pos in islice(highs, m):
                out.append(((pos - j) << lw) | (lows & mask))
                lows >>= lw
                j += 1
        return out

    def count_at_most(self, t: int, shift: int = 0, probes=None) -> int:
        """How many ordinals k (1-indexed) have s_k + shift*k <= t; for
        shift >= 0 they form a prefix.  The rank directory of the high
        bits bounds each ordinal from below without reading a low, and
        limits the exact reads to the few ordinals that bound cannot
        decide.  `probes` counts the directory step as one primitive and
        one search step, like a rank, and one of each per exact read."""
        if not self.n_values:
            return 0
        lw = self.low_width
        counts = self.high_rs.block_counts
        if probes is not None:
            probes.primitives += 1
            probes.search_steps += 1
        # The k-th one-bit sits at p_k = (s_k >> lw) + k - 1, so s_k >=
        # (p_k - k + 1) << lw.  The first ordinal at or after rank block b,
        # counts[b] + 1, has p >= 512b: past the last block whose bound is
        # <= t, every ordinal is > t.
        b = bisect_right(range(len(counts)), t,
                         key=lambda b: ((RANK_BLOCK_BITS * b - counts[b]) << lw) + shift * (counts[b] + 1)) - 1
        if b < 0:
            return 0
        # k: the last ordinal whose high-bit bound is <= t, found within
        # at most the 8 words of block b; every later ordinal is > t
        words = self.high_rs.owner.words
        k = counts[b]
        for wi in range(b * _BLOCK_WORDS, min((b + 1) * _BLOCK_WORDS, len(words))):
            w = words[wi]
            if not w:
                continue
            c = w.bit_count()
            base = (wi << 6) - k  # a one-bit's high part: base + the zeros below it in the word
            if ((base + w.bit_length() - c) << lw) + shift * (k + c) <= t:
                k += c
                continue
            # the j-th one-bit passes iff its zeros below are at most
            # ((t - shift*(k + j)) >> lw) - base, a limit that falls with j
            z = ((t - shift * (k + 1)) >> lw) - base
            if z == ((t - shift * (k + c)) >> lw) - base:
                # one limit for the whole word: the ones below its (z+1)-th zero
                k += (w & ((1 << _select_in_word(~w & _WORD_MASK, z + 1)) - 1)).bit_count() if z >= 0 else 0
                break
            lo, hi = 0, c - 1
            while lo < hi:
                j = (lo + hi + 1) // 2
                if ((base + _select_in_word(w, j) - j + 1) << lw) + shift * (k + j) <= t:
                    lo = j
                else:
                    hi = j - 1
            k += lo
            break

        # the exact values: gallop back from k to an ordinal <= t, then
        # bisect the last gap
        select = self.select
        reads = 0
        hi = k
        step = 1
        while k:
            reads += 1
            if select(k) + shift * k <= t:
                break
            hi = k - 1
            k = max(0, k - step)
            step *= 2
        while k < hi:
            mid = (k + hi + 1) // 2
            reads += 1
            if select(mid) + shift * mid <= t:
                k = mid
            else:
                hi = mid - 1
        if probes is not None:
            probes.primitives += reads
            probes.search_steps += reads
        return k

    def pred(self, x: int):
        """Largest (k, value) with value <= x, or None."""
        k = self.count_at_most(x)
        return (k, self.select(k)) if k else None

    def values_array(self):
        """Every value as an int64 array, decoded at once by the numpy
        kernel: each high part is the position of its one-bit in the high
        bits less its ordinal, and the lows are one fixed-width unpack.
        None when there are fewer than _KERNEL_MIN_VALUES values or the
        universe exceeds _KERNEL_UNIVERSE: the caller reads select_run."""
        n = self.n_values
        if n < _KERNEL_MIN_VALUES or self.universe > _KERNEL_UNIVERSE:
            return None
        high = np.array(self.high_rs.owner.words, dtype="<u8").view(np.uint8)
        highs = np.flatnonzero(np.unpackbits(high, bitorder="little"))[:n] - np.arange(n)
        return (highs << self.low_width) | unpack_fields(self.lows.bits.words, n, self.low_width)

    def values(self):
        whole = self.values_array()
        return self.select_run(1, self.n_values) if whole is None else whole.tolist()

    def __len__(self) -> int:
        return self.n_values

    # -- serialization ----------------------------------------------------

    def _parts(self):
        return (self.lows.bits, self.high_rs.owner), (self.high_rs.samples[1:],)

    @classmethod
    def from_bytes_raw(cls, data, off: int, n_values: int, universe: int):
        if n_values == 0:
            return cls._empty(universe), off
        lw, high_len = cls.shape(n_values, universe)
        lows, off = PackedIntArray.from_bytes_raw(data, off, n_values, lw)
        high, off = BitVector.from_bytes_raw(data, off, high_len)
        counts, samples, ones = _scan_directory(high)
        if ones != n_values:
            raise _ones_error(n_values)
        stored, off = read_words(data, off, len(samples) - 1, "I")
        if stored != samples[1:]:
            raise FormatError("Elias-Fano select samples differ from the high bits")
        return cls(n_values, universe, lw, lows, RankSelectIndex(high, (counts, samples, ones))), off
