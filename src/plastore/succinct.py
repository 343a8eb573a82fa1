"""Bit-level building blocks: plain bitvectors with rank/select support,
arrays of digits packed in mixed radix, and Elias-Fano encoding of
monotone integer sequences.  A fixed-width array is a plain BitVector:
`pack_fields` writes it, `BitVector.read_field` reads one field and
`unpack_fields` all of them.

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
checked reader (``read_words``, or ``_load_bits`` for a vector with a
directory) and raises FormatError when the payload is too short.

One directory type, ``RankSelectIndex``, serves every bitvector that is
ranked or selected.  Its rank block counts and select samples are always
in memory; its owner chooses which are stored.  The rs X bitvector
stores both, Elias-Fano high bits only the select samples after the
first.  One loader, ``RankSelectIndex.from_bytes_raw``, reads both kinds:
it rebuilds the directory from the words (``_load_bits``) and refuses a
payload whose count of ones or stored tables differ from the rebuilt
ones, so no query reads a table that load did not check.  The
Elias-Fano predecessor search (``EliasFano.count_at_most``) bisects the
rank block counts.

One numpy builder, ``_directory``, makes every directory from the
nonzero words of a vector and their indices: the block counts from the
running popcount at each block's first word, the samples from the word
where it reaches each sampled ordinal.  Encode hands it the words that
the sorted one-bit positions set (``_word_runs``, as in ``pack_fields``;
``RankSelectIndex.from_ones``), load the nonzero words of a numpy view
of a payload of _NUMPY_MIN words or more; a shorter payload is read by
``read_words`` and scanned word by word (``_scan_directory``).  The
words stay lists of Python ints for the queries; ``write_words``
serializes words and tables through array.array.  Encode writes every
bitvector through one numpy path in uint64, so any value below 2^64:
``pack_fields`` lays down (value, width) fields from their prefix-sum
offsets, ORing each into its word and the next with one
``bitwise_or.reduceat``.

A whole Elias-Fano sequence is decoded either by ``select_run`` in Python
integers, or by one numpy kernel (``EliasFano.values_array``) when it is
long enough to pay for the kernel: in int64 while its universe keeps
every value far below 2^63, in object dtype (Python ints) above that.
``values()`` reads through whichever applies.
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

# Directory parameters are fixed by the serialization format (version 3):
# one cumulative rank count per 512-bit block, one sampled position per
# 512 one-bits (the first of which is not stored).
RANK_BLOCK_BITS = 512
SELECT_SAMPLE_RATE = 512
_BLOCK_WORDS = RANK_BLOCK_BITS // WORD_BITS

# The one guard between the numpy paths and the Python loops they
# replace, which are faster on short inputs: the numpy kernel decodes a
# whole Elias-Fano sequence of at least _NUMPY_MIN values (select_run a
# shorter one), read_words converts at least _NUMPY_MIN words through
# numpy, and load hands a ranked or selected vector of at least
# _NUMPY_MIN words to _directory (_load_bits; read_words and
# _scan_directory read a shorter one).  Measured crossovers on a 2-core
# VM: ~50 values, ~80 words and ~100 words.  The kernel decodes in
# int64 up to a universe of _INT64_UNIVERSE, which keeps every value it
# forms, and every difference of two, below 2^62 in magnitude, and in
# object dtype above it.
_NUMPY_MIN = 80
_INT64_UNIVERSE = 1 << 60
# _directory writes the nonzero words into a list of zeros, rather than
# converting every word, when fewer than one word in _SPARSE_WORDS holds
# a one-bit: writing a word costs about as much as converting that many.
_SPARSE_WORDS = 8


def _words_end(data, off: int, count: int, code: str) -> int:
    """The byte offset after `count` words ("Q": u64, "I": u32) of `data`
    from byte `off` on; FormatError if `data` is short."""
    end = off + count * struct.calcsize(code)
    if end > len(data):
        raise FormatError(f"component truncated: needs {end} bytes, has {len(data)}")
    return end


def read_words(data, off: int, count: int, code: str = "Q"):
    """`count` little-endian words ("Q": u64, "I": u32) of `data` from byte
    `off` on, as a list of ints, and the offset after them; FormatError if
    `data` is short.  From _NUMPY_MIN words on, the list is made from a
    numpy view of `data`, without the tuple struct.unpack_from builds."""
    end = _words_end(data, off, count, code)
    if count < _NUMPY_MIN:
        return list(struct.unpack_from(f"<{count}{code}", data, off)), end
    return np.frombuffer(data, f"<u{struct.calcsize(code)}", count, off).tolist(), end


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
    array, or ints in any other array or sequence, range-checked first.
    Each field is ORed into the word it starts in and, where it straddles,
    into the next (_or_words).  ValueError for the first value that does
    not fit in its width, or in 64 bits."""
    count = len(values)
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), (count,))
    values = _int_array(values)
    if values.dtype != np.uint64:
        if _outside(values, 0, 1 << 64):
            v, w = next((v, w) for v, w in zip(values.tolist(), widths.tolist()) if v >> min(w, 64))
            raise ValueError(f"value {v} does not fit in {min(w, 64)} bits")
        values = values.astype(np.uint64)
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


def _int_array(values):
    """`values` as an array: any sequence of ints but an array as an object
    array, since numpy makes a list of ints of 2^63 and more float64."""
    return values if isinstance(values, np.ndarray) else np.array(list(values), dtype=object)


def _outside(a, lo: int, hi: int) -> bool:
    """Whether an element of the integer or object array `a` is outside [lo, hi)."""
    return len(a) > 0 and (int(a.min()) < lo or int(a.max()) >= hi)


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
    `positions`, a strictly increasing int64 array in [0, length), as
    _directory gives them, from the words that hold a one (_word_runs)."""
    at, ored = _word_runs(positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64))
    words, counts, ones, samples = _directory((length + 63) >> 6, at, ored)
    return words, (counts.tolist(), samples, ones)


def _directory(nwords: int, at, words_at):
    """(words, block counts, count of ones, select samples) of an
    `nwords`-word vector whose nonzero words are the uint64 `words_at`
    at the increasing int64 indices `at`, the directory as
    _scan_directory gives it but with its block counts an int64 array.
    The words are a list of Python ints: the nonzero ones written into a
    list of zeros when fewer than one word in _SPARSE_WORDS holds a one
    (a zeroed uint64 array of a universe-sized `rs` vector, converted by
    tolist() and freed, would cost a page fault per 4 KiB), otherwise
    one tolist() of the whole vector.  The block counts are the running
    popcount before each block's first word, and each sample is
    _select_in_word in the word where the running popcount reaches its
    ordinal."""
    if len(at) * _SPARSE_WORDS < nwords:
        words = [0] * nwords
        for i, w in zip(at.tolist(), words_at.tolist()):
            words[i] = w
    else:
        dense = np.zeros(nwords, dtype=np.uint64)
        dense[at] = words_at
        words = dense.tolist()
    ends = np.cumsum(np.bitwise_count(words_at), dtype=np.int64)  # the ones up to each nonzero word
    before = np.concatenate(([0], ends))
    counts = before[np.searchsorted(at, np.arange(0, nwords, _BLOCK_WORDS))]
    ones = int(before[-1])
    ks = np.arange(1, ones + 1, SELECT_SAMPLE_RATE)
    i = np.searchsorted(ends, ks)  # the nonzero word holding the k-th one-bit
    samples = [(wi << 6) + _select_in_word(w, k - c)
               for wi, w, k, c in zip(at[i].tolist(), words_at[i].tolist(), ks.tolist(), before[i].tolist())]
    return words, counts, ones, samples


def bit_lengths(a):
    """int.bit_length of each element of a non-negative int64, uint64 or
    object array of values below 2^64: the float64 exponent (at most 64),
    which rounding makes one too large just below a power of two above
    2^53, less one where the value is below 2^(exponent - 1)."""
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

    def raw_chunks(self) -> list:
        """The write_words buffers of the raw form, ready for a join."""
        bitvectors, tables = self._parts()
        return [write_words(bv.words) for bv in bitvectors] + [write_words(t, "I") for t in tables]

    def to_bytes_raw(self) -> bytes:
        return b"".join(self.raw_chunks())


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


def _load_bits(data, off: int, nbits: int):
    """(bitvector, directory, offset after its words, block counts) of the
    `nbits`-bit vector stored from byte `off` of `data`, with the directory
    as _scan_directory gives it and its block counts once more as an int64
    array; FormatError if `data` is short.  From _NUMPY_MIN words on, the
    nonzero words of a numpy view of the payload go to _directory."""
    count = (nbits + 63) >> 6
    if count < _NUMPY_MIN:
        words, off = read_words(data, off, count)
        bv = BitVector(words, nbits)
        directory = _scan_directory(bv)
        return bv, directory, off, np.array(directory[0], dtype=np.int64)
    end = _words_end(data, off, count, "Q")
    w = np.frombuffer(data, "<u8", count, off)
    at = np.flatnonzero(w != 0)  # several times faster than flatnonzero(w) on uint64
    words, counts, ones, samples = _directory(count, at, w[at])
    return BitVector(words, nbits), (counts.tolist(), samples, ones), end, counts


class RankSelectIndex(Stored):
    """Rank and sampled select directories over a BitVector: the count of
    one-bits before each RANK_BLOCK_BITS-bit block, and the position of
    every SELECT_SAMPLE_RATE-th one-bit.

    rank1 touches one block count plus at most eight word popcounts, and
    count_at_most, the predecessor count the rs container searches X
    with, is one rank1.  select1 starts from the nearest sample and scans
    forward by whole words, however many (tens of thousands on a sparse
    universe-sized vector); select_run scans on from there, skipping
    every rank block without a one-bit.  Both tables are kept in memory;
    which of them is stored is the owner's choice (`_parts`), and load
    checks each stored one against the words.  The first sample is the
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
        positions (ints in any order, in an integer or object array or any
        other sequence), built from the positions without a scan of the
        words; ValueError for the first position outside [0, length)."""
        p = _int_array(one_positions)
        if _outside(p, 0, length):
            bad = next(x for x in p.tolist() if not 0 <= x < length)
            raise ValueError(f"bit position {bad} out of range [0, {length})")
        p = p.astype(np.int64)
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
        otherwise)."""
        if shift:
            raise ValueError(f"a rank counts positions, not shifted values: shift {shift} is not 0")
        if probes is not None:
            probes.primitives += 1
        return self.rank1(min(max(t + 1, 0), self.owner.nbits))

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
    def from_bytes_raw(cls, data, off: int, nbits: int, ones: int, counts_stored: bool = True):
        """The directory over an `nbits`-bit vector holding `ones` one-bits,
        rebuilt from the words (_load_bits) and checked against the stored
        tables: the block counts if `counts_stored`, then the samples after
        the first.  FormatError if the vector holds another count of ones,
        if a stored block count differs from the ones before its block, or
        if a stored sample differs from the position of its one-bit."""
        owner, directory, off, rebuilt = _load_bits(data, off, nbits)
        counts, samples, total = directory
        if total != ones:
            raise _ones_error(ones)
        if counts_stored:
            end = _words_end(data, off, len(counts), "I")
            stored = np.frombuffer(data, "<u4", len(counts), off)
            differ = stored != rebuilt
            if differ.any():
                b = int(differ.argmax())
                raise FormatError(f"rank block count {b} is {stored[b]}, but {counts[b]} one-bits precede its block")
            off = end
        stored, off = read_words(data, off, len(samples[1:]), "I")
        if stored != samples[1:]:
            j = next(j for j, (pos, want) in enumerate(zip(stored, samples[1:]), 1) if pos != want)
            raise FormatError(f"select samples differ from the one-bits: sample {j} is {stored[j - 1]}, but one-bit "
                              f"{j * SELECT_SAMPLE_RATE + 1} sits at {samples[j]}")
        return cls(owner, directory), off


class MixedRadixArray(Stored):
    """Immutable array of `count` digits below `radix`, packed K to a
    group: group q is the integer sum of digit qK + j times radix^j for
    j < K, in (radix^K - 1).bit_length() bits, and a short last group of
    r digits takes (radix^r - 1).bit_length() bits.  K is the largest
    k >= 1 with radix^k <= 2^64 (1 for radix 1), so every group fits a
    uint64 and encode forms each exactly; K = 1 lays the digits down as
    plain fields of bit_length(radix - 1) bits.  A digit is one read of
    its group and (group // radix^j) % radix.

    Load does not read the groups.  `group` refuses one at or above
    radix^K (radix^r for the last group) with FormatError, so every read
    checks the group it reads.
    """

    __slots__ = ("radix", "count", "powers", "per_group", "last", "width", "limit", "last_width", "last_limit",
                 "bits")

    def __init__(self, radix: int, count: int, bits: BitVector = None):
        self.radix = radix
        self.count = count
        self.powers = powers = [1, radix]  # radix^0 .. radix^K
        while 1 < radix and powers[-1] * radix <= 1 << 64:
            powers.append(powers[-1] * radix)
        self.per_group = k = len(powers) - 1
        self.last = max(0, -(-count // k) - 1)  # the last group's index
        self.limit = powers[k]
        self.width = (powers[k] - 1).bit_length()
        self.last_limit = powers[count - self.last * k] if count else 1
        self.last_width = (self.last_limit - 1).bit_length()
        self.bits = bits

    @classmethod
    def from_digits(cls, digits, radix: int) -> "MixedRadixArray":
        """`digits`, a uint64 array of values below `radix` (the caller
        checks that), packed into groups by one matrix product with the
        powers of the radix, exact in uint64 since every group is below
        2^64, and one pack_fields."""
        arr = cls(radix, len(digits))
        k = arr.per_group
        ngroups = arr.last + 1 if len(digits) else 0
        if k > 1:
            padded = np.zeros(ngroups * k, dtype=np.uint64)
            padded[:len(digits)] = digits
            digits = padded.reshape(ngroups, k) @ np.array(arr.powers[:k], dtype=np.uint64)
        widths = np.full(ngroups, arr.width, dtype=np.int64)
        widths[-1:] = arr.last_width
        arr.bits = BitVector(*pack_fields(digits, widths))
        return arr

    def group(self, q: int) -> int:
        """Group q, 0 <= q <= last; FormatError if it is at or above the
        power of the radix its digits can reach."""
        if q < self.last:
            width, limit = self.width, self.limit
        else:
            width, limit = self.last_width, self.last_limit
        g = self.bits.read_field(q * self.width, width)
        if g >= limit:
            raise FormatError(f"mixed-radix group {q} holds {g}, at or above {limit}, "
                              f"the radix {self.radix} to the power of its digit count")
        return g

    def get(self, i: int) -> int:
        if not 0 <= i < self.count:
            raise IndexError(f"index {i} out of range [0, {self.count})")
        q, j = divmod(i, self.per_group)
        return self.group(q) // self.powers[j] % self.radix

    def last_digit_bits(self) -> int:
        """The bits the last digit adds to its group: the last group's
        width less the width it would take without that digit."""
        if not self.count:
            return 0
        return self.last_width - (self.last_limit // self.radix - 1).bit_length()

    def _parts(self):
        return (self.bits,), ()

    @classmethod
    def from_bytes_raw(cls, data, off: int, count: int, radix: int):
        arr = cls(radix, count)
        arr.bits, off = BitVector.from_bytes_raw(data, off, arr.last * arr.width + arr.last_width)
        return arr, off


class EliasFano(Stored):
    """Elias-Fano encoding of a non-decreasing integer sequence.

    Each value v < universe splits into `low_width` low bits, the k-th
    value's (0-indexed) at bit k * low_width of the BitVector `lows`, and
    a high part encoded in unary in the bitvector of `high_rs`: the k-th
    value sets bit (v >> low_width) + k.
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
        return cls(0, universe, 0, BitVector([], 0), RankSelectIndex(BitVector([], 0)))

    @staticmethod
    def shape(n: int, universe: int):
        """(low_width, length of the high bits) of n >= 1 values below
        universe >= 1: low_width = floor(log2(universe / n)), or 0 when
        universe < n."""
        lw = max(0, (universe // n).bit_length() - 1)
        return lw, n + ((universe - 1) >> lw)

    @classmethod
    def encode(cls, values, universe: int) -> "EliasFano":
        """The non-decreasing ints `values` (in any array or sequence), each
        in [0, universe), for a universe of at most 2^64; ValueError otherwise."""
        a = _int_array(values)
        n = len(a)
        if n == 0 or universe == 0:
            if n > 0:
                raise ValueError("non-empty sequence needs universe >= 1")
            return cls._empty(universe)
        if universe < 1:
            raise ValueError("universe must be >= 1")
        if universe > 1 << 64:
            raise ValueError(f"universe {universe} exceeds 2^64")
        if _outside(a, 0, universe):  # checked before the conversion
            v = next(v for v in a.tolist() if not 0 <= v < universe)
            raise ValueError(f"value {v} outside [0, {universe})")
        a = a.astype(np.uint64)
        if (a[1:] < a[:-1]).any():
            raise ValueError("sequence must be non-decreasing")
        lw, high_len = cls.shape(n, universe)
        # the high parts shifted in two steps: lw may be 64, and a shift by 64 is undefined
        highs = (a >> np.uint64(lw // 2)) >> np.uint64(lw - lw // 2)
        words, directory = _ones(high_len, highs.astype(np.int64) + np.arange(n))
        lows = BitVector(*pack_fields(a & np.uint64((1 << lw) - 1), lw))
        return cls(n, universe, lw, lows, RankSelectIndex(BitVector(words, high_len), directory))

    def select(self, k: int) -> int:
        """k-th encoded value, 1-indexed."""
        if not 1 <= k <= self.n_values:
            raise IndexError(f"ordinal {k} out of range [1, {self.n_values}]")
        lw = self.low_width
        return ((self.high_rs.select1(k) - (k - 1)) << lw) | self.lows.read_field((k - 1) * lw, lw)

    def select_run(self, k: int, count: int) -> list:
        """Values k to k+count-1 (1-indexed): one select run on the high
        bits, and one read of the lows per 64 values, so that a run costs
        time linear in its length."""
        highs = iter(self.high_rs.select_run(k, count))
        lw = self.low_width
        mask = (1 << lw) - 1
        read = self.lows.read_field
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
        """Every value, decoded at once by the numpy kernel: each high part
        is the position of its one-bit in the high bits less its ordinal,
        and the lows are one fixed-width unpack.  An int64 array up to a
        universe of _INT64_UNIVERSE, an object array of Python ints above
        it.  None when there are fewer than _NUMPY_MIN values: the caller
        reads select_run."""
        n = self.n_values
        if n < _NUMPY_MIN:
            return None
        high = np.array(self.high_rs.owner.words, dtype="<u8").view(np.uint8)
        highs = np.flatnonzero(np.unpackbits(high, bitorder="little"))[:n] - np.arange(n)
        lows = unpack_fields(self.lows.words, n, self.low_width)
        if self.universe > _INT64_UNIVERSE:
            highs, lows = highs.astype(object), lows.astype(object)
        return (highs << self.low_width) | lows

    def values(self):
        whole = self.values_array()
        return self.select_run(1, self.n_values) if whole is None else whole.tolist()

    def __len__(self) -> int:
        return self.n_values

    # -- serialization ----------------------------------------------------

    def _parts(self):
        return (self.lows, self.high_rs.owner), (self.high_rs.samples[1:],)

    @classmethod
    def from_bytes_raw(cls, data, off: int, n_values: int, universe: int):
        if n_values == 0:
            return cls._empty(universe), off
        lw, high_len = cls.shape(n_values, universe)
        lows, off = BitVector.from_bytes_raw(data, off, n_values * lw)
        high_rs, off = RankSelectIndex.from_bytes_raw(data, off, high_len, n_values, counts_stored=False)
        return cls(n_values, universe, lw, lows, high_rs), off
