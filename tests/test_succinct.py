import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from plastore.container import ProbeCounter
from plastore.succinct import (
    BitVector,
    EliasFano,
    RankSelectIndex,
    pack_fields,
)

# shift 0 (pred), 1 (compression's position axis), 2*epsilon - 1 for
# epsilon 1 to 2^40 (indexing), and one far above any universe
SHIFTS = st.sampled_from((0, 1, 1 << 70)) | st.integers(1, 1 << 40).map(lambda e: 2 * e - 1)


def rs(bits: str) -> RankSelectIndex:
    return RankSelectIndex(BitVector.from_ones(len(bits), [i for i, b in enumerate(bits) if b == "1"]))


class TestRankSelect:
    def test_rank_empty_prefix(self):
        assert rs("101101").rank1(0) == 0

    def test_rank_hand_counted(self):
        assert rs("101101").rank1(4) == 3

    def test_select_first(self):
        assert rs("101101").select1(1) == 0

    def test_select_hand_counted(self):
        assert rs("101101").select1(3) == 3

    def test_rank_select_out_of_range(self):
        idx = rs("101101")
        with pytest.raises(IndexError):
            idx.rank1(7)
        with pytest.raises(IndexError):
            idx.rank1(-1)
        with pytest.raises(IndexError):
            idx.select1(0)
        with pytest.raises(IndexError):
            idx.select1(5)

    def test_random_large_vs_linear_scan(self):
        rng = random.Random(7)
        bits = [rng.random() < 0.37 for _ in range(10**4)]
        idx = RankSelectIndex(BitVector.from_ones(len(bits), [i for i, b in enumerate(bits) if b]))
        prefix = 0
        ones_positions = []
        for pos, b in enumerate(bits):
            assert idx.rank1(pos) == prefix
            if b:
                ones_positions.append(pos)
                prefix += 1
        assert idx.rank1(len(bits)) == prefix
        for k, pos in enumerate(ones_positions, start=1):
            assert idx.select1(k) == pos

    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_rank_select_consistency(self, bits):
        idx = RankSelectIndex(BitVector.from_ones(len(bits), [i for i, b in enumerate(bits) if b]))
        ones = sum(bits)
        assert idx.total_ones == ones
        for pos, b in enumerate(bits):
            r = idx.rank1(pos)
            if b:
                assert idx.select1(r + 1) == pos
            elif r + 1 <= ones:
                assert idx.select1(r + 1) >= pos + 1

    def test_sparse_across_sample_boundary(self):
        # more than one select sample: > 512 ones
        positions = list(range(0, 4000, 3))
        bv = BitVector.from_ones(4000, positions)
        idx = RankSelectIndex(bv)
        for k, pos in enumerate(positions, start=1):
            assert idx.select1(k) == pos


class TestBitOps:
    def test_fields_cross_word_boundaries(self):
        vals = [(0b1011, 4), (0xFFFFFFFFFFFFFFF, 60), ((1 << 64) - 1, 64), (0, 3), (5, 3)]
        bv = BitVector.from_fields(vals)
        pos = 0
        for v, width in vals:
            assert bv.read_field(pos, width) == v
            pos += width
        assert bv.nbits == pos

    def test_field_too_wide_rejected(self):
        with pytest.raises(ValueError):
            BitVector.from_fields([(8, 3)])

    def test_packed_array_roundtrip(self):
        rng = random.Random(3)
        for width in (0, 1, 3, 13, 64):
            vals = [rng.randrange(1 << width) if width else 0 for _ in range(97)]
            arr = BitVector(*pack_fields(vals, width))
            assert [arr.read_field(i * width, width) for i in range(len(vals))] == vals
            data = arr.to_bytes_raw()
            arr2, off = BitVector.from_bytes_raw(data, 0, len(vals) * width)
            assert off == len(data)
            assert [arr2.read_field(i * width, width) for i in range(len(vals))] == vals

    def test_bitvector_serialization_bit_exact(self):
        bits = [1, 0, 1, 1, 0, 1] * 33
        bv = BitVector.from_ones(len(bits), [i for i, b in enumerate(bits) if b])
        data = bv.to_bytes_raw()
        assert len(data) == 8 * ((len(bits) + 63) // 64)
        bv2, off = BitVector.from_bytes_raw(data, 0, len(bits))
        assert off == len(data)
        assert bv2.nbits == bv.nbits and bv2.words == bv.words


class TestEliasFano:
    def test_direct_readback(self):
        ef = EliasFano.encode([2, 3, 5, 7, 11], 12)
        assert ef.select(3) == 5

    def test_duplicates(self):
        ef = EliasFano.encode([4, 4, 4], 5)
        assert ef.select(2) == 4
        assert ef.values() == [4, 4, 4]

    def test_singleton(self):
        assert EliasFano.encode([1], 2).select(1) == 1

    def test_small(self):
        assert EliasFano.encode([2, 3, 5], 6).select(2) == 3

    def test_select_out_of_range(self):
        ef = EliasFano.encode([2, 3, 5], 6)
        with pytest.raises(IndexError):
            ef.select(0)
        with pytest.raises(IndexError):
            ef.select(4)

    def test_encode_validation(self):
        with pytest.raises(ValueError, match="sequence must be non-decreasing"):
            EliasFano.encode([3, 2], 5)
        with pytest.raises(ValueError, match=r"value 5 outside \[0, 5\)"):
            EliasFano.encode([1, 5], 5)
        # the range is checked before the order
        with pytest.raises(ValueError, match=r"value -1 outside \[0, 5\)"):
            EliasFano.encode([-1, 2], 5)
        with pytest.raises(ValueError, match=r"value 9 outside \[0, 5\)"):
            EliasFano.encode([3, 2, 9], 5)

    def test_pred_hand(self):
        ef = EliasFano.encode([2, 3, 5, 7, 11], 12)
        assert ef.pred(6) == (3, 5)
        assert ef.pred(1) is None
        assert ef.pred(2) == (1, 2)
        assert ef.pred(100) == (5, 11)

    def test_random_roundtrip_and_pred(self):
        rng = random.Random(11)
        values = sorted(rng.randrange(10**6) for _ in range(10**4))
        ef = EliasFano.encode(values, 10**6)
        assert ef.values() == values
        for _ in range(300):
            x = rng.randrange(-5, 10**6 + 5)
            expect = None
            for k, v in enumerate(values, start=1):
                if v <= x:
                    expect = (k, v)
            assert ef.pred(x) == expect

    @given(st.lists(st.integers(min_value=0, max_value=5000), min_size=0, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, vals):
        vals.sort()
        ef = EliasFano.encode(vals, 5001)
        assert ef.values() == vals

    def test_size_bound(self):
        rng = random.Random(5)
        for n, u in ((10, 100), (100, 100), (500, 10**6), (1000, 1024)):
            values = sorted(rng.randrange(u) for _ in range(n))
            ef = EliasFano.encode(values, u)
            w = next(w for w in range(64) if n << w >= u)  # ceil(log2(u/n))
            assert ef.payload_bits() <= 2 * n + n * w, (n, u, ef.payload_bits())
            assert ef.aux_bits() >= 0

    @pytest.mark.parametrize("ratio, low_width", ((1, 0), (2, 1), (37, 5), (1 << 20, 20)))
    def test_select_run_matches_select_across_chunks(self, ratio, low_width):
        # lows are read 64 values at a time: runs that end on, before and
        # after a chunk boundary, from aligned and unaligned starts
        n = 300
        rng = random.Random(ratio)
        ef = EliasFano.encode(sorted(rng.randrange(n * ratio) for _ in range(n)), n * ratio)
        assert ef.low_width == low_width
        for count in (63, 64, 65, 129, n):
            for k in sorted({1, 2, 64, 65, n - count + 1}):
                if k + count - 1 <= n:
                    assert ef.select_run(k, count) == [ef.select(j) for j in range(k, k + count)], (k, count)

    def test_empty(self):
        ef = EliasFano.encode([], 0)
        assert len(ef) == 0
        assert ef.pred(10) is None

    def test_serialization_roundtrip(self):
        values = [0, 0, 5, 9, 12, 40, 41, 500]
        ef = EliasFano.encode(values, 501)
        raw = ef.to_bytes_raw()
        ef3, off = EliasFano.from_bytes_raw(raw, 0, len(values), 501)
        assert off == len(raw)
        assert ef3.values() == values


class CountingWords(list):
    """A word list that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class CountingEliasFano(EliasFano):
    """An EliasFano that counts its exact reads and answers them from a
    plain list, so that only the predecessor's own reads of the high-bit
    words are counted there."""

    __slots__ = ("plain", "reads")

    @classmethod
    def of(cls, values, universe):
        ef = EliasFano.encode(values, universe)
        high = ef.high_rs
        words = CountingWords(high.owner.words)
        bits = RankSelectIndex(BitVector(words, high.owner.nbits), (high.block_counts, high.samples, high.total_ones))
        counted = cls(ef.n_values, ef.universe, ef.low_width, ef.lows, bits)
        counted.plain = values
        counted.reads = 0
        return counted, words

    def select(self, k):
        self.reads += 1
        return self.plain[k - 1]


class TestCountAtMost:
    @given(universe=st.sampled_from((1, 2, 5, 1000, 1 << 20, 1 << 64)) | st.integers(1, 1 << 64),
           n=st.integers(1, 2000) | st.just(1), distinct=st.integers(1, 2000) | st.integers(1, 3),
           seed=st.integers(0, 1 << 32), shift=SHIFTS)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_brute_force(self, universe, n, distinct, seed, shift):
        # few distinct values make long runs of equal values
        rng = random.Random(seed)
        pool = [rng.randrange(universe) for _ in range(min(n, distinct))]
        values = sorted(rng.choice(pool) for _ in range(n))
        ef = EliasFano.encode(values, universe)
        sums = [v + shift * k for k, v in enumerate(values, start=1)]
        targets = {-1, 0, sums[0] - 1, sums[0], sums[-1], sums[-1] + 1, (1 << 64) + shift * (n + 1)}
        for k in rng.sample(range(n), min(n, 8)):
            targets.update((sums[k] - 1, sums[k]))
        targets.update(rng.randrange(-5, sums[-1] + 6) for _ in range(8))
        for t in targets:
            assert ef.count_at_most(t, shift) == bisect_right(sums, t), t
            if not shift:
                j = bisect_right(values, t)
                assert ef.pred(t) == ((j, values[j - 1]) if j else None), t

    def test_work_bound_on_equal_values(self):
        # 4096 equal values whose lows are all ones: every high-bit bound
        # sits 2^lw - 1 below its value, so up to 4096 ordinals pass the
        # bound and fail the exact check; the search gallops and bisects
        # them instead of walking back one by one
        n, universe = 4096, 1 << 40
        v = universe - 1
        ef, words = CountingEliasFano.of([v] * n, universe)
        assert ef.low_width == 28
        cases = [(v + m, 1, m) for m in (0, 1, 2, 3, 100, 2047, 2048, 2049, 4000, 4095, 4096)]
        cases += [(v - 1, 0, 0), (v, 0, n)]
        for t, shift, want in cases:
            ef.reads = words.reads = 0
            assert ef.count_at_most(t, shift) == want, (t, shift)
            assert ef.reads <= 2 * math.log2(n) + 4, (t, shift, ef.reads)
            assert words.reads <= 8, (t, shift, words.reads)

    @pytest.mark.parametrize("ones", (0, 1, 511, 512, 513, 1025))
    @pytest.mark.parametrize("nbits_per_one", (1.25, 40))
    def test_rank_select_index_matches_brute_force(self, ones, nbits_per_one):
        # dense and sparse vectors around the select sample boundaries:
        # 511 and 512 ones store no sample, 513 one, 1025 two
        rng = random.Random(ones)
        nbits = max(64, int(ones * nbits_per_one))
        positions = sorted(rng.sample(range(nbits), ones))
        idx = RankSelectIndex(BitVector.from_ones(nbits, positions))
        for t in range(-1, nbits + 2):
            assert idx.count_at_most(t) == bisect_right(positions, t), t

    def test_rank_select_index_probes_and_shift(self):
        idx = RankSelectIndex(BitVector.from_ones(1000, range(3, 1000, 7)))
        pc = ProbeCounter()
        assert idx.count_at_most(500, 0, pc) == 72
        assert (pc.primitives, pc.search_steps) == (1, 0)
        for shift in (1, -1, 31):
            with pytest.raises(ValueError):
                idx.count_at_most(500, shift)
