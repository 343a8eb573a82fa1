"""The numpy bit-packing writer (succinct.pack_fields), the mixed-radix
groups of the anchor deltas (succinct.MixedRadixArray) and the directory
builder over one-bit positions (RankSelectIndex.from_ones) against
Python references (tests/conftest.py and below), the word serializer
(succinct.write_words) against struct.pack, the one-pass loader of
ranked and selected bitvectors against struct and _scan_directory, the
memory a load takes, and the encode-side limits of the 64-bit writer."""

import random
import re
import struct
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mixed_radix_bits, mixed_radix_groups, reference_from_fields, reference_from_ones
from plastore import (COMPRESSION, INDEXING, MODE_EF, MODE_RS, Pla, PointSeq, Segment, build_optimal_pla, encode_c,
                      encode_i, succinct)
from plastore.container import zigzag
from plastore.store_compression import CompressedPlaC
from plastore.store_indexing import CompressedPlaI
from plastore.succinct import (SELECT_SAMPLE_RATE, BitVector, EliasFano, MixedRadixArray, PackedIntArray,
                               RankSelectIndex, _scan_directory, pack_fields, read_words, write_words)

ENCODE = {COMPRESSION: encode_c, INDEXING: encode_i}
WIDTHS = st.sampled_from((0, 1, 63, 64)) | st.integers(0, 64)


def value_of(width):
    """A value that fits in `width` bits, often one of its extremes."""
    return st.sampled_from((0, (1 << width) - 1)) | st.integers(0, (1 << width) - 1)


@st.composite
def field_lists(draw, max_size=200):
    widths = draw(st.lists(WIDTHS, max_size=max_size))
    return [(draw(value_of(w)), w) for w in widths]


def columns(fields):
    return [v for v, _ in fields], [w for _, w in fields]


def packed(fields):
    """pack_fields of the fields as Python ints and as a uint64 array; the
    two must agree."""
    values, widths = columns(fields)
    as_ints = pack_fields(values, widths)
    assert pack_fields(np.array(values, dtype=np.uint64), widths) == as_ints
    return as_ints


@given(field_lists())
@settings(max_examples=300)
def test_writer_matches_reference(fields):
    # widths 0 and 64, values 0 and 2^w - 1, fields straddling words, and empty input
    assert packed(fields) == reference_from_fields(fields)
    bv = BitVector.from_fields(fields)
    assert (bv.words, bv.nbits) == reference_from_fields(fields)
    assert all(type(w) is int for w in bv.words)


@given(width=WIDTHS, count=st.integers(0, 300), seed=st.integers(0, 1 << 32))
@settings(max_examples=200)
def test_one_width_matches_reference(width, count, seed):
    rng = random.Random(seed)
    values = [rng.choice((0, (1 << width) - 1, rng.randrange(1 << width))) for _ in range(count)]
    arr = PackedIntArray.from_values(values, width)
    assert (arr.bits.words, arr.bits.nbits) == reference_from_fields([(v, width) for v in values])
    assert PackedIntArray.from_values(np.array(values, dtype=np.uint64), width).bits.words == arr.bits.words


RADIXES = (1, 2, 3, 5, 37, 255, (1 << 32) + 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 65) + 7)


@given(radix=st.sampled_from(RADIXES), count=st.integers(0, 130), seed=st.integers(0, 1 << 32))
@settings(max_examples=300)
def test_mixed_radix_matches_reference(radix, count, seed):
    # radix 3: 40 digits to a 64-bit group; radix 2^32 + 1: one 33-bit
    # digit; radix 2^64 and more: one digit to a 64- or 65-bit group
    rng = random.Random(seed)
    top = min(radix, 1 << 64) - 1
    digits = [rng.choice((0, top, rng.randrange(top + 1))) for _ in range(count)]
    groups = [(value, width) for value, width, _ in mixed_radix_groups(digits, radix)[1]]
    arr = MixedRadixArray.from_digits(np.array(digits, dtype=np.uint64), radix)
    assert (arr.bits.words, arr.bits.nbits) == reference_from_fields(groups)
    assert arr.payload_bits() == mixed_radix_bits(count, radix)
    loaded, off = MixedRadixArray.from_bytes_raw(arr.to_bytes_raw(), 0, count, radix)
    assert off == 8 * len(arr.bits.words)
    assert [loaded.get(i) for i in range(count)] == digits
    if count:
        assert arr.last_digit_bits() == mixed_radix_bits(count, radix) - mixed_radix_bits(count - 1, radix)


def refusal(write, fields):
    with pytest.raises(ValueError) as info:
        write(fields)
    return str(info.value)


@given(fields=field_lists(max_size=40), width=st.integers(0, 64), where=st.integers(0, 40),
       kind=st.sampled_from(("wide", "negative", "2^64")), extra=st.integers(0, 1 << 70))
@settings(max_examples=300)
def test_too_wide_value_refused_like_reference(fields, width, where, kind, extra):
    if kind == "wide":
        width = min(width, 63)
        bad = (1 << width) + extra % ((1 << 64) - (1 << width))
    else:
        bad = -1 - extra if kind == "negative" else (1 << 64) + extra
    fields = fields[:where] + [(bad, width)] + fields[where:]
    message = refusal(reference_from_fields, fields)
    assert refusal(BitVector.from_fields, fields) == message
    if kind == "wide":  # also through the uint64 array
        values, widths = columns(fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            pack_fields(np.array(values, dtype=np.uint64), widths)


def test_value_beyond_64_bits_refused_in_a_wider_field():
    with pytest.raises(ValueError, match="value 18446744073709551616 does not fit in 64 bits"):
        BitVector.from_fields([(1, 3), (1 << 64, 65)])
    # a wider field holds any value below 2^64
    fields = [(1, 3), ((1 << 64) - 1, 65), (5, 70), (3, 2)]
    bv = BitVector.from_fields(fields)
    assert (bv.words, bv.nbits) == reference_from_fields(fields)


def directory_case(ones, bits_per_one, length_pad):
    rng = random.Random(ones * 7 + length_pad)
    length = max(1, int(ones * bits_per_one)) + length_pad
    return length, sorted(rng.sample(range(length), ones))


@pytest.mark.parametrize("length_pad", (0, 1, 63, 511))
@pytest.mark.parametrize("bits_per_one", (1.0, 1.25, 40, 3000))
@pytest.mark.parametrize("ones", (0, 1, 511, 512, 513, 1024, 1025, 1537))
def test_directory_from_positions_matches_scan(ones, bits_per_one, length_pad):
    # dense and sparse vectors across 512-bit rank blocks and 512-one samples
    length, positions = directory_case(ones, bits_per_one, length_pad)
    rs = RankSelectIndex.from_ones(length, positions)
    words = reference_from_ones(length, positions)
    assert rs.owner.words == words and rs.owner.nbits == length
    assert (rs.block_counts, rs.samples, rs.total_ones) == _scan_directory(BitVector(words, length))
    assert len(rs.samples) == -(-ones // SELECT_SAMPLE_RATE)
    assert all(type(w) is int for w in rs.owner.words + rs.block_counts + rs.samples)


def scanned(raw, off, nbits):
    """The reference load of the `nbits`-bit vector at byte `off` of `raw`:
    its words by struct.unpack_from, and the directory _scan_directory
    gives them."""
    words = list(struct.unpack_from(f"<{(nbits + 63) // 64}Q", raw, off))
    return words, _scan_directory(BitVector(words, nbits))


def loaded(index):
    """(words, directory) of a RankSelectIndex."""
    return index.owner.words, (index.block_counts, index.samples, index.total_ones)


@pytest.mark.parametrize("numpy_min", (1, 1 << 40))  # one numpy pass per vector, then read_words and the scan
@pytest.mark.parametrize("length_pad", (0, 1, 63, 511))
@pytest.mark.parametrize("bits_per_one", (1.0, 1.25, 40, 3000))
@pytest.mark.parametrize("ones", (0, 1, 511, 512, 513, 1024, 1025, 1537))
def test_loaded_directory_matches_scan(ones, bits_per_one, length_pad, numpy_min):
    # an rs vector and the high bits of an Elias-Fano sequence, each read
    # back with its directory on one side of the short-vector guard
    length, positions = directory_case(ones, bits_per_one, length_pad)
    rs = RankSelectIndex.from_ones(length, positions)
    ef = EliasFano.encode(positions, length)
    with patch.object(succinct, "_NUMPY_MIN", numpy_min):
        raw = rs.to_bytes_raw()
        rs2, off = RankSelectIndex.from_bytes_raw(raw, 0, length, ones)
        assert off == len(raw) and loaded(rs2) == scanned(raw, 0, length) == loaded(rs)
        raw = ef.to_bytes_raw()
        ef2, off = EliasFano.from_bytes_raw(raw, 0, ones, length)
        assert off == len(raw) and loaded(ef2.high_rs) == loaded(ef.high_rs)
        if ones:
            assert loaded(ef2.high_rs) == scanned(raw, 8 * len(ef.lows.bits.words), ef.high_rs.owner.nbits)
    for index in (rs2, ef2.high_rs):
        words, (counts, samples, total) = loaded(index)
        assert all(type(v) is int for v in words + counts + samples + [total])


def test_rs_load_takes_one_list_of_words():
    # the universe-sized X of a sparse indexing rs container is read into
    # its list of words and little else: no tuple of the words, and no copy
    # of the payload
    rng = random.Random(3)
    keys = sorted(rng.sample(range(1, 1 << 24), 299)) + [(1 << 24) + 4096]
    points = PointSeq(keys, setting=INDEXING)
    data = encode_i(build_optimal_pla(points, 4), points, MODE_RS).to_bytes()
    tracemalloc.start()
    try:
        store = CompressedPlaI.from_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = len(store.x.owner.words)
    assert words >= 1 << 18
    assert peak < 1.5 * 8 * words, f"load peaked at {peak} bytes for {words} words"


def test_from_ones_in_any_order_and_out_of_range():
    positions = [700, 3, 64, 3, 0, 511, 512]
    assert BitVector.from_ones(701, positions).words == reference_from_ones(701, positions)
    assert BitVector.from_ones(0, []).words == []
    for bad in ([5, 701, -1], [5, -1, 701]):
        with pytest.raises(ValueError) as want:
            reference_from_ones(701, bad)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            RankSelectIndex.from_ones(701, bad)


@pytest.mark.parametrize("code, top", (("Q", 64), ("I", 32)))
def test_write_words_matches_struct_pack(code, top):
    values = [0, 1, (1 << (top - 1)) - 1, 1 << (top - 1), (1 << top) - 1]
    rng = random.Random(top)
    values += [rng.getrandbits(top) for _ in range(99)]
    data = b"".join([write_words(values, code)])
    assert data == struct.pack(f"<{len(values)}{code}", *values)
    for count in (3, len(values)):  # below and above the short-vector guard
        assert read_words(data, 0, count, code) == (values[:count], count * struct.calcsize(code))
    assert b"".join([write_words([], code)]) == b""
    for bad in (-1, 1 << top):
        with pytest.raises(OverflowError):
            write_words([0, bad], code)


def test_elias_fano_universe_limit():
    ef = EliasFano.encode([0, (1 << 64) - 1], 1 << 64)
    assert ef.values() == [0, (1 << 64) - 1]
    with pytest.raises(ValueError, match="exceeds 2\\^64"):
        EliasFano.encode([1], (1 << 64) + 1)


def wide_delta_pla(delta):
    """A one-segment compression PLA with epsilon_eff 2^63, so w_delta is
    65, whose anchor at x = 1 is `delta` off its point."""
    eps = 1 << 63
    seg = Segment(first_x=1, last_x=3, intercept=1 + delta, final_y=30, first_y=1, last_y=30)
    return Pla([seg], eps, eps, COMPRESSION), PointSeq([1, 2, 30])


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
def test_65_bit_delta_fields(mode):
    # every code below 2^64 fits a 65-bit field; a delta of 2^63 or more
    # would need a code of 2^64 or more, which the writer refuses
    pla, points = wide_delta_pla(-5)
    store = encode_c(pla, points, mode)
    assert store.w_delta == 65
    assert store.d_beta.bits.words == reference_from_fields([(zigzag(-5), 65)])[0]
    assert CompressedPlaC.from_bytes(store.to_bytes()).decode_all_segments() == pla.segments
    pla, points = wide_delta_pla(1 << 63)
    with pytest.raises(ValueError, match="anchor delta of 2\\^63 or more"):
        encode_c(pla, points, mode)


@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_epsilon_below_one_refused(setting):
    # such a header is refused at load; in indexing an epsilon of 0 would
    # also admit value-axis gaps below the bias of the B widths
    points = PointSeq([1, 4, 9, 16, 25], setting=setting)
    pla = build_optimal_pla(points, 1)
    with pytest.raises(ValueError, match="epsilon 0 is below 1"):
        ENCODE[setting](Pla(pla.segments, 0, 0, setting), points, MODE_EF)
