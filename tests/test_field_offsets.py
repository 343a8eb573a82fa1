"""The sampled B-field offsets, rebuilt at load and kept in memory, the
mixed-radix anchor deltas, and the trimmed select directories of the
container format."""

import random
import struct

import pytest

from plastore import (
    COMPRESSION,
    INDEXING,
    MODE_EF,
    MODE_RS,
    FormatError,
    Pla,
    PointSeq,
    ProbeCounter,
    Segment,
    encode_c,
    encode_i,
)
from plastore.container import FORMAT_VERSION, OFFSET_SAMPLE_RATE
from plastore.store_compression import CompressedPlaC
from plastore.store_indexing import CompressedPlaI
from plastore.succinct import SELECT_SAMPLE_RATE, BitVector, EliasFano, RankSelectIndex

K = OFFSET_SAMPLE_RATE
# ell <= k, ell = k + 1, and enough blocks that every position within a
# block, full or partial, holds a field
ELLS = (1, 2, K - 1, K, K + 1, K + 2, 2 * K + 1, 5 * K + 3)


def compression_case(ell, rng):
    """ell segments of 3 positions each (the last of 1 to 3) over values
    with gaps drawn from several scales, so field widths vary."""
    n = 3 * (ell - 1) + rng.randrange(1, 4)
    values = []
    v = 0
    for _ in range(n):
        v += rng.choice((1, 2, 7, 40, 900, 70000))
        values.append(v)
    segs = []
    for i in range(ell):
        a = 3 * i + 1
        b = n if i == ell - 1 else a + 2
        segs.append(Segment(first_x=a, last_x=b, intercept=values[a - 1], final_y=values[b - 1],
                            first_y=values[a - 1], last_y=values[b - 1]))
    points = PointSeq(values, setting=COMPRESSION)
    return Pla(segs, epsilon=1, epsilon_eff=0, setting=COMPRESSION), points


def indexing_case(ell, rng):
    """ell segments of 3 keys each (the last of 1 to 3), key gaps drawn
    from several scales."""
    n = 3 * (ell - 1) + rng.randrange(1, 4)
    keys = []
    v = 0
    for _ in range(n):
        v += rng.choice((1, 2, 7, 40, 900, 70000))
        keys.append(v)
    segs = []
    for i in range(ell):
        a = 3 * i + 1
        b = n if i == ell - 1 else a + 2
        segs.append(Segment(first_x=keys[a - 1], last_x=keys[b - 1], intercept=a, final_y=b,
                            first_y=a, last_y=b))
    points = PointSeq(keys, setting=INDEXING)
    return Pla(segs, epsilon=1, epsilon_eff=0, setting=INDEXING), points


CASES = {
    COMPRESSION: (compression_case, encode_c, CompressedPlaC, lambda s: s.first_y, 0),
    INDEXING: (indexing_case, encode_i, CompressedPlaI, lambda s: s.first_x, 2),
}


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_offsets_are_running_sums_of_gap_widths(setting, mode):
    make, encode, cls, coord, bias = CASES[setting]
    rng = random.Random(f"{setting}-{mode}")
    for ell in ELLS:
        pla, points = make(ell, rng)
        store = encode(pla, points, mode)
        loaded = cls.from_bytes(store.to_bytes())
        cs = [coord(s) for s in pla.segments]
        widths = [(b - a - bias).bit_length() for a, b in zip(cs, cs[1:])]
        expect = [sum(widths[:i]) for i in range(ell)]  # fields 1..ell-1, then |B|
        offsets = loaded.p_ef
        assert offsets.n_values == ell
        assert [offsets.select(i) for i in range(1, ell + 1)] == expect, ell
        assert offsets.select(ell) == loaded.b_bits.nbits == sum(widths)
        for i in range(1, ell):
            assert offsets.field(i)[1:] == (expect[i - 1], widths[i - 1]), (ell, i)
        assert len(offsets.samples) == max(0, ell - 2) // K
        assert loaded.decode_all_segments() == pla.segments
        assert loaded.to_bytes() == store.to_bytes()


@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_offset_walk_probe_count(setting):
    """The walk reads at most k/2 + 2 values and one sample, whatever the
    field's place in its block."""
    make, encode, _, _, _ = CASES[setting]
    pla, _points = make(5 * K + 3, random.Random(7))
    store = encode(pla, _points, MODE_EF)
    worst = 0
    for i in range(1, store.ell):
        pc = ProbeCounter()
        store.p_ef.field(i, pc)
        worst = max(worst, pc.primitives)
    assert worst == K // 2 + 2


def test_gamma_last_is_a_delta_against_n():
    # epsilon_eff 1: radix 3, 40 deltas to a group, so the K + 2 deltas of
    # delta_gamma form one group, and gamma_l is its last digit
    rng = random.Random(3)
    ell = K + 2
    pla, points = indexing_case(ell, rng)
    last = pla.segments[-1]
    for final_y in (last.last_y - 1, last.last_y, last.last_y + 1):
        segs = pla.segments[:-1] + [Segment(last.first_x, last.last_x, last.intercept, final_y,
                                            last.first_y, last.last_y)]
        moved = Pla(segs, epsilon=1, epsilon_eff=1, setting=INDEXING)
        store = encode_i(moved, points)
        budget = store.size_bits()
        assert budget.components["gamma_last"] == (3 ** ell - 1).bit_length() - (3 ** (ell - 1) - 1).bit_length() == 1
        assert budget.components["delta_gamma"] + budget.components["gamma_last"] == (3 ** ell - 1).bit_length()
        assert CompressedPlaI.from_bytes(store.to_bytes()).decode_all_segments() == segs
    far = pla.segments[:-1] + [Segment(last.first_x, last.last_x, last.intercept, last.last_y + 2,
                                       last.first_y, last.last_y)]
    with pytest.raises(ValueError, match="anchor delta exceeds"):
        encode_i(Pla(far, epsilon=1, epsilon_eff=1, setting=INDEXING), points)


def refused_as_version(cls, setting, version):
    make, encode, _, _, _ = CASES[setting]
    pla, points = make(K + 1, random.Random(5))
    data = bytearray(encode(pla, points).to_bytes())
    assert data[4] == FORMAT_VERSION == 3
    data[4] = version
    with pytest.raises(FormatError, match=f"unsupported format version {version}"):
        cls.from_bytes(bytes(data))


@pytest.mark.parametrize("cls,setting", ((CompressedPlaC, COMPRESSION), (CompressedPlaI, INDEXING)))
def test_version_1_refused(cls, setting):
    refused_as_version(cls, setting, 1)


@pytest.mark.parametrize("cls,setting", ((CompressedPlaC, COMPRESSION), (CompressedPlaI, INDEXING)))
def test_version_2_refused(cls, setting):
    # version 2 stored the sampled B offsets as a sixth component
    refused_as_version(cls, setting, 2)


@pytest.mark.parametrize("n", (1, 2, SELECT_SAMPLE_RATE - 1, SELECT_SAMPLE_RATE, SELECT_SAMPLE_RATE + 1,
                               2 * SELECT_SAMPLE_RATE, 2 * SELECT_SAMPLE_RATE + 1))
def test_elias_fano_trimmed_directory_round_trip(n):
    rng = random.Random(n)
    for start, universe in ((0, 4 * n + 1), (10**6, 10**6 + 3 * n + 1)):
        values = sorted(rng.randrange(start, universe) for _ in range(n))
        ef = EliasFano.encode(values, universe)
        nsamples = (n + SELECT_SAMPLE_RATE - 1) // SELECT_SAMPLE_RATE
        assert len(ef.high_rs.samples) == nsamples
        assert ef.aux_bits() == 32 * (nsamples - 1)
        raw = ef.to_bytes_raw()
        assert len(raw) == 8 * (len(ef.lows.words) + len(ef.high_rs.owner.words)) + 4 * (nsamples - 1)
        ef2, off = EliasFano.from_bytes_raw(raw, 0, n, universe)
        assert off == len(raw)
        assert ef2.high_rs.samples == ef.high_rs.samples
        assert ef2.values() == values
        assert ef2.to_bytes_raw() == raw
        for k in (1, n // 2 + 1, n):
            assert ef2.select(k) == values[k - 1]
            assert ef2.select_run(k, n - k + 1) == values[k - 1:]


@pytest.mark.parametrize("ones", (1, SELECT_SAMPLE_RATE, SELECT_SAMPLE_RATE + 1))
def test_rank_select_directory_round_trip_and_runs(ones):
    rng = random.Random(ones)
    length = 200 * ones + 5000  # sparse: most rank blocks hold no 1-bit
    positions = sorted(rng.sample(range(3000, length), ones))
    idx = RankSelectIndex(BitVector.from_ones(length, positions))
    raw = idx.to_bytes_raw()
    nwords = len(idx.owner.words)
    nblocks = len(idx.block_counts)
    assert len(raw) == 8 * nwords + 4 * nblocks + 4 * (len(idx.samples) - 1)
    assert struct.unpack_from(f"<{nblocks}I", raw, 8 * nwords) == tuple(idx.block_counts)
    idx2, off = RankSelectIndex.from_bytes_raw(raw, 0, length, ones)
    assert off == len(raw) and idx2.samples == idx.samples and idx2.total_ones == ones
    assert idx2.owner.words == idx.owner.words and idx2.to_bytes_raw() == raw
    assert idx2.select_run(1, ones) == positions
    for k in rng.sample(range(1, ones + 1), min(ones, 20)):
        count = rng.randrange(1, ones - k + 2)
        assert idx2.select_run(k, count) == positions[k - 1:k - 1 + count]
    with pytest.raises(IndexError):
        idx2.select_run(ones, 2)
