import itertools

import pytest

from plastore import (
    BudgetError,
    CoverageError,
    EnumSpec,
    PointSeq,
    build_optimal_pla,
    enumerate_pla_c,
    enumerate_pla_i,
    min_segments_bruteforce,
    predict_reference,
    encode_c,
)
from plastore.bounds import conditional_count_c, conditional_count_i
from plastore.oracle import min_segments_dp


class TestEnumerateCompression:
    def test_single_segment_hand_count(self):
        # beta and gamma free over 3x3, last value forced to u
        spec = EnumSpec(ell=1, epsilon=1, u=5, n=4, fixed_y=(3,))
        assert enumerate_pla_c(spec) == 9

    def test_two_segments_hand_count(self):
        spec = EnumSpec(ell=2, epsilon=1, u=6, n=6, fixed_y=(2, 4))
        assert enumerate_pla_c(spec) == 3 * 3 * 81 == 729

    def test_infeasible_width_gives_zero(self):
        spec = EnumSpec(ell=3, epsilon=1, u=8, n=5, fixed_y=(1, 2, 3))
        assert enumerate_pla_c(spec) == 0

    def test_matches_conditional_factor_spot(self):
        for u, n, ell in ((7, 8, 2), (9, 8, 3), (5, 6, 1)):
            for y in itertools.combinations_with_replacement(range(1, u + 1), ell):
                spec = EnumSpec(ell=ell, epsilon=1, u=u, n=n, fixed_y=y)
                assert enumerate_pla_c(spec) == conditional_count_c(ell, 1, u, n, y)

    def test_budget(self):
        spec = EnumSpec(ell=3, epsilon=1, u=10, n=8, fixed_y=(2, 5, 9), budget=10)
        with pytest.raises(BudgetError):
            enumerate_pla_c(spec)


class TestEnumerateIndexing:
    def test_single_segment_hand_count(self):
        spec = EnumSpec(ell=1, epsilon=1, u=6, n=4, fixed_x=(1,))
        assert enumerate_pla_i(spec) == 9

    def test_two_segments_matches_factor(self):
        spec = EnumSpec(ell=2, epsilon=1, u=10, n=8, fixed_x=(1, 4))
        assert enumerate_pla_i(spec) == conditional_count_i(2, 1, 10, 8, (1, 4)) == 810

    def test_infeasible_gives_zero(self):
        # n too small for two segments of >= 2*eps points each
        spec = EnumSpec(ell=2, epsilon=2, u=20, n=5, fixed_x=(1, 8))
        assert enumerate_pla_i(spec) == 0

    def test_epsilon_two_spot(self):
        for x in ((1, 5), (2, 7), (3, 8)):
            spec = EnumSpec(ell=2, epsilon=2, u=12, n=10, fixed_x=x)
            assert enumerate_pla_i(spec) == conditional_count_i(2, 2, 12, 10, x)

    def test_x_validation(self):
        with pytest.raises(ValueError):
            enumerate_pla_i(EnumSpec(ell=2, epsilon=1, u=10, n=8, fixed_x=(1, 2)))
        with pytest.raises(ValueError):
            enumerate_pla_i(EnumSpec(ell=1, epsilon=2, u=6, n=8, fixed_x=(4,)))


class TestMinSegments:
    def test_collinear(self):
        assert min_segments_bruteforce(PointSeq([2, 4, 6, 8]), 1) == 1

    def test_two_clusters(self):
        assert min_segments_bruteforce(PointSeq([1, 2, 3, 10, 11, 12]), 1) == 2

    def test_matches_dp_recomputation(self):
        import random

        rng = random.Random(31)
        for _ in range(300):
            n = rng.randrange(1, 12)
            values = sorted(rng.sample(range(1, 40), n))
            eps = rng.choice([1, 2])
            for setting in ("compression", "indexing"):
                points = PointSeq(values, setting=setting)
                assert min_segments_bruteforce(points, eps) == min_segments_dp(points, eps)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            min_segments_bruteforce(PointSeq(list(range(1, 17))), 1)


class TestPredictReference:
    def test_endpoints_and_slope_one(self):
        points = PointSeq([4, 5, 6, 7])
        pla = build_optimal_pla(points, 1)
        seg = pla.segments[0]
        assert predict_reference(pla, seg.first_x) == seg.intercept
        assert predict_reference(pla, seg.last_x) == seg.final_y
        for x in range(1, 5):
            assert predict_reference(pla, x) == x + 3

    def test_uncovered_raises(self):
        points = PointSeq([10, 20, 30], setting="indexing")
        pla = build_optimal_pla(points, 1)
        with pytest.raises(CoverageError):
            predict_reference(pla, 5)

    def test_matches_store_predict(self):
        import random

        rng = random.Random(13)
        values = sorted(rng.sample(range(1, 5000), 700))
        points = PointSeq(values)
        pla = build_optimal_pla(points, 2)
        store = encode_c(pla, points)
        for x in range(1, points.n + 1):
            assert store.predict(x) == predict_reference(pla, x)
