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
    encode_c,
    predict_reference,
)
from plastore.store_compression import CompressedPlaC

from conftest import mixed_radix_bits


def build_store(values, eps, mode=MODE_EF):
    points = PointSeq(values, setting=COMPRESSION)
    pla = build_optimal_pla(points, eps)
    return pla, points, encode_c(pla, points, mode)


class TestEncodeDecode:
    def test_single_segment_degenerate(self):
        pla, points, store = build_store([1, 2, 3], 1)
        assert store.ell == 1
        if store.mode == MODE_EF:
            assert len(store.x_ef) == 0
        assert store.y_ef.values() == [1]
        assert store.b_bits.nbits == 0
        assert store.decode_all_segments() == pla.segments

    def test_single_point_sequence(self):
        for mode in (MODE_EF, MODE_RS):
            pla, points, store = build_store([7], 1, mode)
            assert store.n == 1 and store.ell == 1
            assert store.predict(1) == 7
            loaded = CompressedPlaC.from_bytes(store.to_bytes())
            assert loaded.decode_all_segments() == pla.segments

    def test_hand_built_three_segments(self):
        # fixture: 3 segments over 9 positions with exactly known tuples
        segs = [
            Segment(first_x=1, last_x=3, intercept=2, final_y=4, first_y=2, last_y=5),
            Segment(first_x=4, last_x=6, intercept=9, final_y=12, first_y=9, last_y=12),
            Segment(first_x=7, last_x=9, intercept=21, final_y=29, first_y=20, last_y=30),
        ]
        values = (2, 4, 5, 9, 11, 12, 20, 25, 30)
        points = PointSeq(values, setting=COMPRESSION)
        pla = Pla(list(segs), epsilon=2, epsilon_eff=2, setting=COMPRESSION)
        for mode in (MODE_EF, MODE_RS):
            store = encode_c(pla, points, mode)
            for i, seg in enumerate(segs, start=1):
                assert store.decode_segment(i) == seg
            assert store.decode_segment(3).last_y == store.u == 30

    def test_zero_width_field_for_equal_first_values(self):
        # hand-built PLA where two segments share the first covered value;
        # the corresponding B field has width zero and stores nothing
        segs = [
            Segment(first_x=1, last_x=2, intercept=7, final_y=7, first_y=7, last_y=7),
            Segment(first_x=3, last_x=4, intercept=7, final_y=9, first_y=7, last_y=9),
        ]
        points = PointSeq.__new__(PointSeq)
        points.values = (7, 7, 7, 9)  # bypass strict-increase validation
        points.setting = COMPRESSION
        pla = Pla(list(segs), epsilon=1, epsilon_eff=0, setting=COMPRESSION)
        for mode in (MODE_EF, MODE_RS):
            store = encode_c(pla, points, mode)
            assert store.b_bits.nbits == 0
            assert store.decode_all_segments() == segs

    def test_setting_mismatch(self):
        points = PointSeq([1, 5, 9], setting="indexing")
        pla = build_optimal_pla(points, 1)
        with pytest.raises(ValueError):
            encode_c(pla, points)

    @pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
    def test_from_pla_refuses_other_setting(self, mode):
        # the segments pass the setting's own checks; only a label is wrong
        pla, points, _ = build_store([2, 4, 7, 9, 30, 31, 33], 1)
        other_pla = Pla(pla.segments, pla.epsilon, pla.epsilon_eff, INDEXING)
        other_points = PointSeq(points.values, setting=INDEXING)
        for p, pts in ((other_pla, points), (pla, other_points)):
            with pytest.raises(ValueError, match="compression-setting"):
                CompressedPlaC.from_pla(p, pts, mode)

    def test_random_roundtrip(self):
        rng = random.Random(42)
        for trial in range(60):
            n = rng.randrange(2, 2000)
            hi = max(n + 2, rng.randrange(n + 2, 10 * n + 4))
            values = sorted(rng.sample(range(1, hi), n))
            eps = rng.choice([1, 2, 4, 8])
            pla, points, store = build_store(values, eps, MODE_EF if trial % 2 else MODE_RS)
            assert store.decode_all_segments() == pla.segments


class TestQueries:
    def test_segment_of_single(self):
        _, points, store = build_store([1, 2, 3], 1)
        for x in range(1, 4):
            assert store.segment_of(x) == 1

    def test_segment_boundaries(self):
        pla, points, store = build_store([1, 2, 3, 10, 11, 12, 30, 31, 33], 1)
        firsts = [s.first_x for s in pla.segments]
        for i, fx in enumerate(firsts, start=1):
            assert store.segment_of(fx) == i

    def test_segment_of_matches_linear_scan(self):
        rng = random.Random(6)
        values = sorted(rng.sample(range(1, 30000), 2500))
        pla, points, store_ef = build_store(values, 1, MODE_EF)
        store_rs = encode_c(pla, points, MODE_RS)
        firsts = [s.first_x for s in pla.segments]
        for x in range(1, points.n + 1):
            expect = sum(1 for f in firsts if f <= x)
            assert store_ef.segment_of(x) == expect
            assert store_rs.segment_of(x) == expect

    def test_range_errors(self):
        _, points, store = build_store([1, 2, 3], 1)
        for bad in (0, 4, -3):
            with pytest.raises(IndexError):
                store.segment_of(bad)
            with pytest.raises(IndexError):
                store.predict(bad)
        with pytest.raises(IndexError):
            store.decode_segment(2)

    def test_predict_endpoints(self):
        pla, points, store = build_store([3, 6, 9, 40, 45, 50, 55], 1)
        for i, seg in enumerate(pla.segments, start=1):
            assert store.predict(seg.first_x) == seg.intercept
            assert store.predict(seg.last_x) == seg.final_y

    def test_predict_error_contract_and_reference(self):
        rng = random.Random(8)
        for mode in (MODE_EF, MODE_RS):
            values = sorted(rng.sample(range(1, 100000), 3000))
            pla, points, store = build_store(values, 2, mode)
            for x in range(1, points.n + 1):
                p = store.predict(x)
                assert abs(p - values[x - 1]) <= store.epsilon_eff
                assert p == predict_reference(pla, x)

    def test_mode_equivalence(self):
        rng = random.Random(10)
        values = sorted(rng.sample(range(1, 50000), 1200))
        pla, points, ef = build_store(values, 4, MODE_EF)
        rs = encode_c(pla, points, MODE_RS)
        for x in range(1, points.n + 1):
            assert ef.segment_of(x) == rs.segment_of(x)
            assert ef.predict(x) == rs.predict(x)

    def test_access_formula_equals_sequential_unary_scan(self):
        # decoding first positions via select must match walking the
        # shifted-unary string the X sequence encodes
        rng = random.Random(11)
        values = sorted(rng.sample(range(1, 9000), 800))
        pla, points, store = build_store(values, 2)
        firsts = [s.first_x for s in pla.segments]
        bits = ""
        for a, b in zip(firsts, firsts[1:]):
            bits += "0" * (b - a - 2) + "1"
        ones = [i + 1 for i, c in enumerate(bits) if c == "1"]  # 1-indexed
        assert store.x_axis.first(1) == 1
        for i in range(2, store.ell + 1):
            assert store.x_axis.first(i) == ones[i - 2] + i


class TestSizeAndSerialization:
    def test_delta_bits_exact(self):
        pla, points, store = build_store(sorted(random.Random(1).sample(range(1, 5000), 400)), 1)
        budget = store.size_bits()
        bits = mixed_radix_bits(store.ell, 2 * store.epsilon_eff + 1)
        assert budget.components["delta_beta"] == budget.components["delta_gamma"] == bits

    def test_b_bits_exact(self):
        pla, points, store = build_store(sorted(random.Random(2).sample(range(1, 5000), 400)), 1)
        budget = store.size_bits()
        firsts_y = [s.first_y for s in pla.segments]
        expect = sum((b - a).bit_length() for a, b in zip(firsts_y, firsts_y[1:]))
        assert budget.components["b"] == expect

    def test_total_matches_serialized_bytes(self):
        for mode in (MODE_EF, MODE_RS):
            pla, points, store = build_store(
                sorted(random.Random(3).sample(range(1, 9000), 700)), 2, mode
            )
            budget = store.size_bits()
            data = store.to_bytes()
            assert budget.file_bits == len(data) * 8
            assert budget.total_bits == len(data) * 8 - budget.padding_bits

    def test_serialization_roundtrip_and_determinism(self):
        for mode in (MODE_EF, MODE_RS):
            pla, points, store = build_store(
                sorted(random.Random(4).sample(range(1, 7000), 500)), 1, mode
            )
            data = store.to_bytes()
            assert data == encode_c(pla, points, mode).to_bytes()  # deterministic
            loaded = CompressedPlaC.from_bytes(data)
            assert loaded.decode_all_segments() == pla.segments
            assert loaded.header() == store.header()
            for x in rand_positions(points.n, 200, seed=5):
                assert loaded.predict(x) == store.predict(x)

    def test_bad_magic_and_truncation(self):
        _, _, store = build_store([1, 2, 3, 9, 10, 11], 1)
        data = bytearray(store.to_bytes())
        with pytest.raises(FormatError):
            CompressedPlaC.from_bytes(b"XXXX" + bytes(data[4:]))
        with pytest.raises(FormatError):
            CompressedPlaC.from_bytes(bytes(data[: len(data) - 3]))


class TestProbes:
    def test_rs_probe_count_constant(self):
        rng = random.Random(12)
        counts = set()
        for n in (200, 2000, 20000):
            values = sorted(rng.sample(range(1, 20 * n), n))
            pla, points, store = build_store(values, 1, MODE_RS)
            worst = 0
            for x in rand_positions(points.n, 50, seed=n):
                pc = ProbeCounter()
                store.predict(x, probes=pc)
                worst = max(worst, pc.primitives)
            counts.add(worst)
        assert len(counts) == 1 and counts.pop() <= 16

    def test_ef_search_steps_logarithmic(self):
        rng = random.Random(13)
        values = sorted(rng.sample(range(1, 80000), 8000))
        pla, points, store = build_store(values, 1, MODE_EF)
        import math

        steps = []
        for x in rand_positions(points.n, 200, seed=99):
            pc = ProbeCounter()
            store.predict(x, probes=pc)
            steps.append(pc.search_steps)
        assert sum(steps) / len(steps) <= math.log2(store.ell) + 2


def rand_positions(n, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(1, n + 1) for _ in range(count)]
