import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from plastore import (
    COMPRESSION,
    INDEXING,
    CoverageError,
    PointSeq,
    Segment,
    build_optimal_pla,
    encode_c,
    encode_i,
    min_segments_bruteforce,
    verify_error,
)
from plastore.oracle import min_segments_dp
from plastore.pla import interpolate, optimal_spans, round_to_integer_endpoints
from plastore.store_compression import CompressedPlaC
from plastore.store_indexing import CompressedPlaI


class TestPointSeq:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointSeq([0, 1, 2])
        with pytest.raises(ValueError):
            PointSeq([1, 1, 2])
        with pytest.raises(ValueError):
            PointSeq([1, 2], setting="other")

    def test_plane_mapping(self):
        p = PointSeq([3, 7, 9], setting=COMPRESSION)
        assert p.plane_points() == ([1, 2, 3], [3, 7, 9])
        q = PointSeq([3, 7, 9], setting=INDEXING)
        assert q.plane_points() == ([3, 7, 9], [1, 2, 3])


class TestBuilder:
    def test_collinear_single_segment(self):
        pla = build_optimal_pla(PointSeq([1, 2, 3]), 1)
        assert pla.ell == 1

    def test_two_clusters(self):
        pla = build_optimal_pla(PointSeq([1, 2, 3, 10, 11, 12]), 1)
        assert pla.ell == 2

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            build_optimal_pla(PointSeq([1, 2, 3]), 0)
        with pytest.raises(ValueError):
            build_optimal_pla(PointSeq([]), 1)

    def test_single_point(self):
        pla = build_optimal_pla(PointSeq([5]), 1)
        assert pla.ell == 1 and pla.epsilon_eff == 0
        seg = pla.segments[0]
        assert seg.first_x == seg.last_x == 1 and seg.intercept == seg.final_y == 5

    def test_coverage_partition(self):
        rng = random.Random(2)
        values = sorted(rng.sample(range(1, 4000), 600))
        for setting in (COMPRESSION, INDEXING):
            points = PointSeq(values, setting=setting)
            pla = build_optimal_pla(points, 2)
            # verify_error checks the partition structure and recomputes the max error
            assert verify_error(pla, points) == pla.epsilon_eff

    def test_error_bound_random(self):
        rng = random.Random(9)
        for trial in range(100):
            n = rng.randrange(2, 120)
            values = sorted(rng.sample(range(1, 3000), n))
            eps = rng.choice([1, 2, 3, 5])
            setting = COMPRESSION if trial % 2 == 0 else INDEXING
            points = PointSeq(values, setting=setting)
            pla = build_optimal_pla(points, eps)
            err = verify_error(pla, points)
            assert err == pla.epsilon_eff <= eps + 3

    def test_indexing_segment_widths(self):
        rng = random.Random(4)
        for eps in (1, 2, 4):
            values = sorted(rng.sample(range(1, 20000), 1500))
            pla = build_optimal_pla(PointSeq(values, setting=INDEXING), eps)
            for a, b in zip(pla.segments, pla.segments[1:]):
                assert b.first_x - a.first_x >= 2 * eps
                assert b.first_y - a.first_y >= 2 * eps

    def test_compression_segment_widths(self):
        rng = random.Random(5)
        values = sorted(rng.sample(range(1, 9000), 800))
        pla = build_optimal_pla(PointSeq(values), 1)
        for a, b in zip(pla.segments, pla.segments[1:]):
            assert b.first_x - a.first_x >= 2

    @given(st.sets(st.integers(min_value=1, max_value=24), min_size=2, max_size=9),
           st.integers(min_value=1, max_value=2))
    @settings(max_examples=200, deadline=None)
    def test_optimality_matches_bruteforce(self, value_set, eps):
        values = sorted(value_set)
        for setting in (COMPRESSION, INDEXING):
            points = PointSeq(values, setting=setting)
            pla = build_optimal_pla(points, eps)
            assert pla.ell == min_segments_bruteforce(points, eps)

    def test_exhaustive_small_grid(self):
        # all strictly increasing sequences over a small universe
        for n in range(2, 7):
            for values in itertools.combinations(range(1, 9), n):
                for eps in (1, 2):
                    for setting in (COMPRESSION, INDEXING):
                        points = PointSeq(values, setting=setting)
                        pla = build_optimal_pla(points, eps)
                        expect = min_segments_bruteforce(points, eps)
                        assert pla.ell == expect, (values, eps, setting)
                        assert min_segments_dp(points, eps) == expect


class TestRounding:
    def test_exact_fit_keeps_error_zero(self):
        pla = build_optimal_pla(PointSeq([5, 7, 9, 11]), 1)
        assert pla.epsilon_eff == 0
        assert pla.segments[0].intercept == 5 and pla.segments[0].final_y == 11

    def test_nearest_rounding_rule(self):
        # feasible slope interval collapses symmetrically: value 4.6 at the
        # first anchor must round to 5
        spans = [(0, 1)]
        slopes = [(23, 10, 23, 10)]  # slope fixed at 2.3
        points = PointSeq([2, 5], setting=COMPRESSION)
        # line through midpoint of feasible intercepts at slope 2.3 over
        # points (1,2),(2,5): offsets t = y - a*(x-1): t1 = 2, t2 = 2.7 ->
        # beta = (2 + 2.7)/2 = 2.35 -> rounds to 2
        pla = round_to_integer_endpoints(spans, slopes, 1, points)
        assert pla.segments[0].intercept == 2

    def test_rounding_error_bound_and_exact_scan(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(2, 80)
            values = sorted(rng.sample(range(1, 2500), n))
            eps = rng.choice([1, 2, 4])
            points = PointSeq(values, setting=rng.choice([COMPRESSION, INDEXING]))
            pla = build_optimal_pla(points, eps)
            assert pla.epsilon_eff <= eps + 3
            assert verify_error(pla, points) == pla.epsilon_eff

    def test_half_rounds_up(self):
        from plastore.pla import _nearest

        assert _nearest(9, 2) == 5
        assert _nearest(-9, 2) == -4
        assert _nearest(46, 10) == 5
        assert _nearest(44, 10) == 4


class TestVerifyError:
    def test_coverage_error_on_tampered_pla(self):
        points = PointSeq([1, 2, 3, 10, 11, 12])
        pla = build_optimal_pla(points, 1)
        pla.segments.pop()
        with pytest.raises(CoverageError):
            verify_error(pla, points)

    def test_greedy_spans_are_maximal(self):
        rng = random.Random(21)
        values = sorted(rng.sample(range(1, 5000), 400))
        xs = list(range(1, len(values) + 1))
        spans, _ = optimal_spans(xs, values, 2)
        assert spans[0][0] == 0 and spans[-1][1] == len(values) - 1
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 == e1 + 1


# inputs whose error scan overflows int64: products (x - x0)*(gamma - beta)
# beyond 2^63, and values that do not fit in int64 at all
BEYOND_INT64 = {
    "spaced-2^56": [1 + i * 2**56 for i in range(100)],
    "above-2^63": [2**63 + 1000 * i + (i * i) % 7 for i in range(100)],
}


def exact_max_error(pla, points):
    xs, ys = points.plane_points()
    worst = 0
    j = 0
    for seg in pla.segments:
        while j < points.n and xs[j] <= seg.last_x:
            pred = interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, xs[j])
            worst = max(worst, abs(pred - ys[j]))
            j += 1
    return worst


class TestBeyondInt64:
    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    @pytest.mark.parametrize("name", sorted(BEYOND_INT64))
    def test_build_verify_and_store(self, name, setting):
        points = PointSeq(BEYOND_INT64[name], setting=setting)
        pla = build_optimal_pla(points, 4)
        assert pla.epsilon_eff <= 4 + 3
        assert verify_error(pla, points) == pla.epsilon_eff == exact_max_error(pla, points)
        encode, cls = (encode_c, CompressedPlaC) if setting == COMPRESSION else (encode_i, CompressedPlaI)
        store = cls.from_bytes(encode(pla, points).to_bytes())
        assert store.decode_all_segments() == pla.segments

    def test_verify_error_sees_large_anchors(self):
        points = PointSeq(list(range(1, 101)))
        pla = build_optimal_pla(points, 1)
        seg = pla.segments[0]
        pla.segments[0] = Segment(seg.first_x, seg.last_x, seg.intercept, 2**70, seg.first_y, seg.last_y)
        assert verify_error(pla, points) == exact_max_error(pla, points) > 2**63
