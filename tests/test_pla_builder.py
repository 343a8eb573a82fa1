import itertools
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plastore import (
    COMPRESSION,
    INDEXING,
    CoverageError,
    PointSeq,
    Pla,
    Segment,
    build_optimal_pla,
    encode_c,
    encode_i,
    min_segments_bruteforce,
    predict_reference,
    verify_error,
)
from plastore import pla as pla_module
from plastore.oracle import min_segments_dp
from plastore.pla import _CHUNK, _checked_errors, optimal_spans, round_to_integer_endpoints, violations
from plastore.store_compression import CompressedPlaC
from plastore.store_indexing import CompressedPlaI

from conftest import exact_anchors, exact_errors, exact_max_error


class TestPointSeq:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointSeq([0, 1, 2])
        with pytest.raises(ValueError):
            PointSeq([1, 1, 2])
        with pytest.raises(ValueError):
            PointSeq([1, 2], setting="other")

    def test_refuses_non_integers(self):
        for values in ([1.5, 2.5, 7.0], [1, 2.0], ["1", "2"], [np.float64(1), np.float64(2)]):
            with pytest.raises(ValueError, match="values must be integers"):
                PointSeq(values)

    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    def test_numpy_integers_are_python_ints(self, setting):
        values = list(itertools.accumulate(random.Random(5).randint(1, 30) for _ in range(500)))
        points = PointSeq(np.array(values, dtype=np.int64), setting=setting)
        assert points.values == tuple(values) and all(type(v) is int for v in points.values)
        plain = PointSeq(values, setting=setting)
        encode = encode_c if setting == COMPRESSION else encode_i
        assert encode(build_optimal_pla(points, 2), points).to_bytes() == \
            encode(build_optimal_pla(plain, 2), plain).to_bytes()

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
        # slope fixed at 10 over (1, 1), (2, 2): offsets t = y - a*(x-1) are
        # 1 and -8, so beta = -3.5 -> -3 and gamma = 10 - 3.5 = 6.5 -> 7;
        # slope 3 over (1, 2), (2, 6): offsets 2 and 3, beta = 2.5 -> 3, gamma = 5.5 -> 6
        for values, slope, anchors in (([1, 2], 10, (-3, 7)), ([2, 6], 3, (3, 6))):
            pla = round_to_integer_endpoints([(0, 1)], [(slope, 1, slope, 1)], 8, PointSeq(values))
            assert (pla.segments[0].intercept, pla.segments[0].final_y) == anchors


class TestVerifyError:
    def test_coverage_error_on_tampered_pla(self):
        points = PointSeq([1, 2, 3, 10, 11, 12])
        pla = build_optimal_pla(points, 1)
        pla.segments.pop()
        with pytest.raises(CoverageError):
            verify_error(pla, points)

    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    def test_coverage_error_messages(self, setting):
        values = sorted(random.Random(8).sample(range(1, 3000), 300))
        points = PointSeq(values, setting=setting)
        pla = build_optimal_pla(points, 2)
        segs = pla.segments
        assert len(segs) >= 4
        xs, ys = points.plane_points()
        first = (segs[2].first_x if setting == COMPRESSION else segs[2].first_y) - 1
        late = segs[2]._replace(first_x=xs[first + 1], first_y=ys[first + 1])
        wrong_key = segs[0]._replace(first_x=segs[0].first_x + 1)
        last = (segs[-1].first_x if setting == COMPRESSION else segs[-1].first_y)
        cases = [
            (segs[:2] + segs[3:], f"segment {segs[3]} does not cover the expected point range"),
            (segs[:-1], f"points {last}..{points.n} are not covered by any segment"),
            (segs[:2] + [late] + segs[3:], f"segment {late} does not cover the expected point range"),
            ([wrong_key] + segs[1:], f"segment {wrong_key} does not cover the expected point range"),
        ]
        for segments, message in cases:
            with pytest.raises(CoverageError) as exc:
                verify_error(Pla(segments, pla.epsilon, pla.epsilon_eff, setting), points)
            assert str(exc.value) == message

    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    def test_violations_list_every_point_above_the_bound(self, setting):
        points = PointSeq(sorted(random.Random(9).sample(range(1, 5000), 400)), setting=setting)
        pla = build_optimal_pla(points, 2)
        seg = pla.segments[3]
        pla.segments[3] = seg._replace(intercept=seg.intercept + 9)
        xs, ys = points.plane_points()
        for bound in (0, pla.epsilon_eff):
            expect = [(x, predict_reference(pla, x), y) for x, y in zip(xs, ys)
                      if abs(predict_reference(pla, x) - y) > bound]
            assert violations(pla, points, bound) == expect
        assert expect  # the raised intercept breaks the bound

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


def _mixed_guard_values():
    """Dense values, then values about 2^56 apart: the dense segments pass
    the kernels' guards and the wide ones fail them, while every value
    still fits in int64."""
    rng = random.Random(31)
    dense = list(itertools.accumulate(rng.randint(1, 5) for _ in range(300)))
    return dense + [dense[-1] + i * 2**56 + rng.randint(0, 2**40) for i in range(1, 40)]


def _long_segment_values():
    """A straight run longer than a kernel chunk, across a chunk boundary,
    between runs of random gaps."""
    rng = random.Random(32)
    gaps = ([rng.randint(1, 40) for _ in range(_CHUNK - 500)] + [7] * (_CHUNK + 1000)
            + [rng.randint(1, 40) for _ in range(2000)])
    return list(itertools.accumulate(gaps))


def kernel_dtypes(points, epsilon):
    """The dtype of every array each kernel took in one build and one
    verify_error of `points`: [anchors, errors (build), errors (verify)],
    each a set, which holds one dtype since the kernels mix none."""
    seen = []

    def spy(kernel):
        def run(plane, starts, ends, *args):
            seen.append({a.dtype for a in (*plane, *args)})
            return kernel(plane, starts, ends, *args)
        return run

    with patch.object(pla_module, "_kernel_anchors", spy(pla_module._kernel_anchors)), \
            patch.object(pla_module, "_kernel_errors", spy(pla_module._kernel_errors)):
        verify_error(build_optimal_pla(points, epsilon), points)
    return seen


class TestKernel:
    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    @pytest.mark.parametrize("make", [_mixed_guard_values, _long_segment_values])
    def test_rounding_matches_exact_path(self, make, setting):
        points = PointSeq(make(), setting=setting)
        xs, ys = points.plane_points()
        spans, slopes = optimal_spans(xs, ys, 4)
        pla = round_to_integer_endpoints(spans, slopes, 4, points)
        anchors = [exact_anchors(xs, ys, s, e, sl) for (s, e), sl in zip(spans, slopes)]
        assert [(seg.intercept, seg.final_y) for seg in pla.segments] == anchors
        errors = exact_errors(pla, points)
        assert _checked_errors(pla, points)[2] == errors
        assert pla.epsilon_eff == max(errors) == exact_max_error(pla, points)
        if make is _long_segment_values:
            assert any(e - s >= _CHUNK and s // _CHUNK != e // _CHUNK for s, e in spans)
            assert kernel_dtypes(points, 4) == [{np.dtype(np.int64)}] * 3

    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    @pytest.mark.parametrize("gap, epsilon", [(40, 4), (200, 16)])
    def test_dense_input_runs_at_int64(self, setting, gap, epsilon):
        # the shapes of the benchmark's compress-dense and index-sparse inputs
        rng = random.Random(gap)
        points = PointSeq(list(itertools.accumulate(rng.randint(1, gap - 1) for _ in range(20000))), setting=setting)
        assert kernel_dtypes(points, epsilon) == [{np.dtype(np.int64)}] * 3

    @pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
    @pytest.mark.parametrize("name", sorted(BEYOND_INT64) + ["mixed-guard"])
    def test_out_of_guard_input_runs_as_objects(self, setting, name):
        values = _mixed_guard_values() if name == "mixed-guard" else BEYOND_INT64[name]
        assert kernel_dtypes(PointSeq(values, setting=setting), 4) == [{np.dtype(object)}] * 3
