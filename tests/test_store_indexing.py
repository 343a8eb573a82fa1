import math
import random

import pytest

from plastore import (
    COMPRESSION,
    INDEXING,
    FormatError,
    MODE_EF,
    MODE_RS,
    Pla,
    PointSeq,
    ProbeCounter,
    Segment,
    build_optimal_pla,
    encode_i,
    predict_reference,
)
from plastore.store_indexing import CompressedPlaI
from plastore.succinct import RankSelectIndex

from conftest import mixed_radix_bits


def build_store(values, eps, mode=MODE_EF):
    points = PointSeq(values, setting=INDEXING)
    pla = build_optimal_pla(points, eps)
    return pla, points, encode_i(pla, points, mode)


class TestEncodeDecode:
    def test_single_segment(self):
        pla, points, store = build_store([4, 8, 12, 16], 1)
        assert store.ell == 1
        if store.mode == MODE_EF:
            assert store.x_ef.values() == [4]
        assert len(store.y_ef) == 0 and store.b_bits.nbits == 0
        seg = store.decode_segment(1)
        assert seg == pla.segments[0]
        assert seg.last_x == store.u and seg.last_y == points.n

    def test_single_point_sequence(self):
        for mode in (MODE_EF, MODE_RS):
            pla, points, store = build_store([7], 1, mode)
            assert store.n == 1 and store.ell == 1 and store.u == 7
            assert store.predict(7) == 1
            loaded = CompressedPlaI.from_bytes(store.to_bytes())
            assert loaded.decode_all_segments() == pla.segments

    def test_minimum_width_segment_field(self):
        # two segments whose key gap is exactly 2*eps: field width is
        # ceil(log2(2*eps - 1))
        segs = [
            Segment(first_x=1, last_x=3, intercept=1, final_y=4, first_y=1, last_y=4),
            Segment(first_x=5, last_x=9, intercept=5, final_y=8, first_y=5, last_y=8),
        ]
        # positions 1..4 cover keys 1..4, positions 5..8 cover keys 5..9
        values = (1, 2, 3, 4, 5, 6, 8, 9)
        points = PointSeq(values, setting=INDEXING)
        pla = Pla(list(segs), epsilon=2, epsilon_eff=1, setting=INDEXING)
        for mode in (MODE_EF, MODE_RS):
            store = encode_i(pla, points, mode)
            eps = 2
            assert store.b_bits.nbits == math.ceil(math.log2(2 * eps - 1))
            assert store.decode_all_segments() == segs

    def test_width_validation(self):
        segs = [
            Segment(first_x=1, last_x=2, intercept=1, final_y=2, first_y=1, last_y=2),
            Segment(first_x=3, last_x=6, intercept=3, final_y=4, first_y=3, last_y=4),
        ]
        points = PointSeq((1, 2, 3, 6), setting=INDEXING)
        pla = Pla(list(segs), epsilon=2, epsilon_eff=0, setting=INDEXING)
        with pytest.raises(ValueError):
            encode_i(pla, points)  # key gap 2 < 2*eps = 4

    def test_setting_mismatch(self):
        points = PointSeq([1, 5, 9], setting="compression")
        pla = build_optimal_pla(points, 1)
        with pytest.raises(ValueError):
            encode_i(pla, points)

    @pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
    def test_from_pla_refuses_other_setting(self, mode):
        # the segments pass the setting's own checks; only a label is wrong
        pla, points, _ = build_store(list(range(1, 41, 2)) + [60, 61, 62], 2)
        other_pla = Pla(pla.segments, pla.epsilon, pla.epsilon_eff, COMPRESSION)
        other_points = PointSeq(points.values, setting=COMPRESSION)
        for p, pts in ((other_pla, points), (pla, other_points)):
            with pytest.raises(ValueError, match="indexing-setting"):
                CompressedPlaI.from_pla(p, pts, mode)

    @pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
    def test_from_pla_refuses_epsilon_eff_above_epsilon_plus_3(self, mode):
        pla, points, _ = build_store(list(range(1, 41, 2)) + [60, 61, 62], 2)
        loose = Pla(pla.segments, pla.epsilon, pla.epsilon + 4, INDEXING)
        with pytest.raises(ValueError, match="epsilon_eff"):
            encode_i(loose, points, mode)

    def test_rs_bitvector_of_2_32_bits_refused_before_allocation(self, monkeypatch):
        # the format stores the rs length and select samples as u32
        class Allocated(Exception):
            pass

        def allocate(cls, length, one_positions):
            raise Allocated(length)

        monkeypatch.setattr(RankSelectIndex, "from_ones", classmethod(allocate))
        # the control: a small rs encode allocates through the patched builder
        small = PointSeq([1, 5, 9], setting=INDEXING)
        with pytest.raises(Allocated):
            encode_i(build_optimal_pla(small, 1), small, MODE_RS)
        points = PointSeq([1, 2**32 + 5], setting=INDEXING)
        with pytest.raises(ValueError, match="2\\^32"):
            encode_i(build_optimal_pla(points, 1), points, MODE_RS)

    def test_random_roundtrip(self):
        rng = random.Random(21)
        for trial in range(60):
            n = rng.randrange(2, 1500)
            hi = max(n + 2, rng.randrange(2 * n + 2, 20 * n + 4))
            values = sorted(rng.sample(range(1, hi), n))
            eps = rng.choice([1, 2, 4, 8])
            pla, points, store = build_store(values, eps, MODE_EF if trial % 2 else MODE_RS)
            assert store.decode_all_segments() == pla.segments


class TestQueries:
    def test_segment_of_boundaries(self):
        rng = random.Random(31)
        values = sorted(rng.sample(range(1, 4000), 500))
        pla, points, store = build_store(values, 1)
        for i, seg in enumerate(pla.segments, start=1):
            assert store.segment_of(seg.first_x) == i

    def test_segment_of_single(self):
        pla, points, store = build_store([5, 10, 15], 1)
        for x in range(5, 16):
            assert store.segment_of(x) == 1

    def test_segment_of_matches_linear_scan(self):
        rng = random.Random(32)
        values = sorted(rng.sample(range(1, 9000), 700))
        pla, points, ef = build_store(values, 2, MODE_EF)
        rs = encode_i(pla, points, MODE_RS)
        firsts = [s.first_x for s in pla.segments]
        for x in range(values[0], values[-1] + 1):
            expect = sum(1 for f in firsts if f <= x)
            assert ef.segment_of(x) == expect
            assert rs.segment_of(x) == expect

    def test_range_errors(self):
        pla, points, store = build_store([5, 10, 15], 1)
        with pytest.raises(IndexError):
            store.segment_of(4)
        with pytest.raises(IndexError):
            store.predict(2)
        with pytest.raises(IndexError):
            store.predict(16)
        with pytest.raises(IndexError):
            store.decode_segment(2)

    def test_predict_endpoints(self):
        rng = random.Random(33)
        values = sorted(rng.sample(range(1, 6000), 800))
        pla, points, store = build_store(values, 1)
        for seg in pla.segments:
            assert store.predict(seg.first_x) == seg.intercept
            assert store.predict(seg.last_x) == seg.final_y

    def test_predict_error_contract_on_keys(self):
        rng = random.Random(34)
        for mode in (MODE_EF, MODE_RS):
            values = sorted(rng.sample(range(1, 300000), 2500))
            pla, points, store = build_store(values, 2, mode)
            for rank, key in enumerate(values, start=1):
                p = store.predict(key)
                assert abs(p - rank) <= store.epsilon_eff
                assert p == predict_reference(pla, key)

    def test_mode_equivalence(self):
        rng = random.Random(35)
        values = sorted(rng.sample(range(1, 50000), 900))
        pla, points, ef = build_store(values, 4, MODE_EF)
        rs = encode_i(pla, points, MODE_RS)
        for _ in range(2000):
            x = rng.randrange(values[0], values[-1] + 1)
            assert ef.segment_of(x) == rs.segment_of(x)
            assert ef.predict(x) == rs.predict(x)

    def test_access_formula_equals_sequential_unary_scan(self):
        # decoding via the select formulas must match walking the implied
        # unary strings
        rng = random.Random(36)
        values = sorted(rng.sample(range(1, 12000), 900))
        pla, points, store = build_store(values, 2)
        eps = store.epsilon
        shift = 2 * eps - 1
        firsts_x = [s.first_x for s in pla.segments]
        firsts_y = [s.first_y for s in pla.segments]
        # rebuild the unary strings exactly as defined
        xbits = "0" * (firsts_x[0] - 1) + "1"
        for a, b in zip(firsts_x, firsts_x[1:]):
            xbits += "0" * (b - a - 2 * eps) + "1"
        ones = [i + 1 for i, c in enumerate(xbits) if c == "1"]  # 1-indexed
        for i in range(1, store.ell + 1):
            assert store.x_axis.first(i) == ones[i - 1] + shift * (i - 1)
        ybits = ""
        for a, b in zip(firsts_y, firsts_y[1:]):
            ybits += "0" * (b - a - 2 * eps) + "1"
        yones = [i + 1 for i, c in enumerate(ybits) if c == "1"]
        for i in range(2, store.ell + 1):
            assert store.y_axis.first(i) == yones[i - 2] + shift * (i - 1) + 1


class TestSizeAndSerialization:
    def test_component_bits(self):
        rng = random.Random(41)
        values = sorted(rng.sample(range(1, 30000), 1500))
        pla, points, store = build_store(values, 2)
        budget = store.size_bits()
        radix = 2 * store.epsilon_eff + 1
        assert budget.components["delta_beta"] == mixed_radix_bits(store.ell, radix)
        assert budget.components["delta_gamma"] == mixed_radix_bits(store.ell - 1, radix)
        assert budget.components["gamma_last"] == (mixed_radix_bits(store.ell, radix)
                                                   - mixed_radix_bits(store.ell - 1, radix))
        firsts_x = [s.first_x for s in pla.segments]
        expect_b = sum((b - a - 2).bit_length() for a, b in zip(firsts_x, firsts_x[1:]))
        assert budget.components["b"] == expect_b

    def test_total_matches_serialized_bytes(self):
        rng = random.Random(42)
        for mode in (MODE_EF, MODE_RS):
            values = sorted(rng.sample(range(1, 40000), 1100))
            pla, points, store = build_store(values, 1, mode)
            data = store.to_bytes()
            budget = store.size_bits()
            assert budget.file_bits == len(data) * 8

    def test_serialization_roundtrip(self):
        rng = random.Random(43)
        for mode in (MODE_EF, MODE_RS):
            values = sorted(rng.sample(range(1, 25000), 600))
            pla, points, store = build_store(values, 2, mode)
            data = store.to_bytes()
            assert data == encode_i(pla, points, mode).to_bytes()
            loaded = CompressedPlaI.from_bytes(data)
            assert loaded.decode_all_segments() == pla.segments
            for _ in range(300):
                x = rng.randrange(values[0], values[-1] + 1)
                assert loaded.predict(x) == store.predict(x)

    def test_bad_magic(self):
        pla, points, store = build_store([2, 4, 6, 9], 1)
        data = store.to_bytes()
        with pytest.raises(FormatError):
            CompressedPlaI.from_bytes(b"PLAC" + data[4:])


class TestProbes:
    def test_rs_probe_count_constant(self):
        rng = random.Random(51)
        counts = set()
        for n in (200, 2000, 15000):
            values = sorted(rng.sample(range(1, 40 * n), n))
            pla, points, store = build_store(values, 1, MODE_RS)
            worst = 0
            for _ in range(50):
                x = rng.randrange(values[0], values[-1] + 1)
                pc = ProbeCounter()
                store.predict(x, probes=pc)
                worst = max(worst, pc.primitives)
            counts.add(worst)
        assert len(counts) == 1 and counts.pop() <= 16

    def test_ef_search_steps_logarithmic(self):
        rng = random.Random(52)
        values = sorted(rng.sample(range(1, 300000), 9000))
        pla, points, store = build_store(values, 1, MODE_EF)
        steps = []
        for _ in range(200):
            x = rng.randrange(values[0], values[-1] + 1)
            pc = ProbeCounter()
            store.predict(x, probes=pc)
            steps.append(pc.search_steps)
        assert sum(steps) / len(steps) <= math.log2(store.ell) + 2
