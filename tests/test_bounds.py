import itertools
import math
import random

import pytest

from plastore import (
    COMPRESSION,
    INDEXING,
    PointSeq,
    baseline_la_bits,
    baseline_pgm_bits,
    build_optimal_pla,
    count_c,
    count_i,
    count_i_general,
    encode_c,
    encode_i,
    log2_binomial,
    lower_bound_c,
    lower_bound_i,
    redundancy_report,
)
from plastore.bounds import conditional_count_c, conditional_count_i, log2_big


class TestLog2Binomial:
    def test_empty_choice(self):
        assert log2_binomial(5, 0) == 0.0

    def test_hand_value(self):
        assert abs(log2_binomial(4, 2) - math.log2(6)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log2_binomial(3, 4)
        with pytest.raises(ValueError):
            log2_binomial(3, -1)

    def test_large_matches_log_sum(self):
        m, k = 10**4, 37
        expect = sum(math.log2(m - i) - math.log2(i + 1) for i in range(k))
        assert abs(log2_binomial(m, k) - expect) < 1e-9

    def test_log2_big_huge(self):
        x = 3**400
        assert abs(log2_big(x) - 400 * math.log2(3)) < 1e-9


class TestCounts:
    def test_count_c_single_segment(self):
        assert count_c(1, 1, 5, 4, (3,)) == 45

    def test_count_c_two_segments(self):
        assert count_c(2, 1, 6, 6, (2, 4)) == 3 * 21 * 3 * 81 == 15309

    def test_count_c_domain(self):
        with pytest.raises(ValueError):
            count_c(2, 1, 6, 3, (2, 4))  # n < 2*ell
        with pytest.raises(ValueError):
            count_c(2, 1, 6, 6, (4, 2))  # decreasing y

    def test_count_i_single_segment(self):
        assert count_i(1, 1, 6, 4, (1,)) == 45

    def test_count_i_two_segments(self):
        assert count_i(2, 1, 10, 8, (1, 4)) == 28 * 5 * 2 * 81 == 22680

    def test_count_i_general_values(self):
        assert count_i_general(2, 1, 10, 8) == 28 * 5 * 1 * 81 == 11340

    def test_count_i_general_equals_count_i_for_single_segment(self):
        for u, n in ((6, 4), (9, 7), (12, 5)):
            vals = {count_i(1, 1, u, n, (x,)) for x in range(1, u - 1)}
            assert vals == {count_i_general(1, 1, u, n)}

    def test_general_lower_bounds_every_x(self):
        for ell, eps, u, n in ((2, 1, 10, 8), (3, 1, 10, 8), (2, 2, 14, 12)):
            gen = count_i_general(ell, eps, u, n)
            shift = 2 * eps
            for x in itertools.combinations(range(1, u - 2 * eps + 2), ell):
                if any(x[i + 1] - x[i] < shift for i in range(ell - 1)):
                    continue
                assert gen <= count_i(ell, eps, u, n, x)


class TestLowerBounds:
    def test_log_of_count(self):
        assert abs(lower_bound_c(1, 1, 5, 4, (3,)) - math.log2(45)) < 1e-9

    def test_matches_log2_count_on_grid(self):
        for ell in (1, 2, 3):
            for u in range(max(2, ell), 9):
                for n in range(2 * ell, 8):
                    for y in itertools.combinations_with_replacement(range(1, u + 1), ell):
                        lb = lower_bound_c(ell, 1, u, n, y)
                        assert abs(lb - log2_big(count_c(ell, 1, u, n, y))) < 1e-9

    def test_matches_log2_count_i_on_grid(self):
        for ell in (1, 2):
            for u in range(3 * ell, 11):
                for n in range(ell + 1, 9):
                    if n < ell * 1 + 1:
                        continue
                    for x in itertools.combinations(range(1, u), ell):
                        if any(x[i + 1] - x[i] < 2 for i in range(ell - 1)) or x[-1] > u - 1:
                            continue
                        lb = lower_bound_i(ell, 1, u, n, x)
                        cnt = count_i(ell, 1, u, n, x)
                        if cnt > 0:
                            assert abs(lb - log2_big(cnt)) < 1e-9

    def test_monotone_in_u(self):
        prev = 0.0
        for u in range(5, 60):
            lb = lower_bound_c(2, 1, u, 10, (2, min(4, u)))
            assert lb >= prev - 1e-12
            prev = lb

    def test_theta_sandwich(self):
        rng = random.Random(23)
        for _ in range(200):
            ell = rng.randrange(2, 60)
            u = ell * rng.randrange(4, 500)
            n = min(u, ell * rng.randrange(2, 30))
            if n < 2 * ell:
                continue
            eps = rng.choice([1, 2, 4, 8])
            y = sorted(rng.randrange(1, u + 1) for _ in range(ell))
            lb = lower_bound_c(ell, eps, u, n, tuple(y))
            lo = ell * math.log2(u / ell)
            hi = 8 * ell * math.log2(u / ell) + 4 * ell * math.log2(2 * eps + 1) + 64
            assert lo <= lb <= hi, (ell, eps, u, n, lo, lb, hi)


class TestBaselines:
    def test_la_formula_values(self):
        ell, eps, u, n = 8, 1, 1024, 128
        v1 = baseline_la_bits(ell, eps, u, n, "binary-search")
        expect = ell * (2 * math.log2(u / ell) + math.log2(n / ell) + 6 + 2 * math.log2(3))
        assert abs(v1 - expect) < 1e-9

    def test_la_constant_time_formula(self):
        ell, eps, u, n = 16, 2, 4096, 512
        v2 = baseline_la_bits(ell, eps, u, n, "constant-time")
        expect = (
            ell * (2 * math.log2(u / ell) + 4 + 2 * math.log2(5))
            + log2_binomial(n, ell)
            + n / math.log2(n) ** 2
        )
        assert abs(v2 - expect) < 1e-9

    def test_pgm_formula_values(self):
        ell, eps, u, n = 8, 1, 10**6, 10**3
        v1 = baseline_pgm_bits(ell, eps, u, n, "binary-search")
        expect = ell * (1.92 + math.log2(n * n / ell) + 2 * math.log2(u))
        assert abs(v1 - expect) < 1e-9
        v2 = baseline_pgm_bits(ell, eps, u, n, "constant-time")
        expect2 = (
            ell * (1.92 + math.log2(n * n / ell) + math.log2(u))
            + log2_binomial(u, ell)
            + u / math.log2(u) ** 2
        )
        assert abs(v2 - expect2) < 1e-9

    def test_constant_time_directory_term_is_zero_at_one(self):
        # log2(1) = 0: a one-value sequence (n = 1) or universe (u = 1) has no directory term
        eps = 1
        v1 = baseline_la_bits(1, eps, 5, 1, "constant-time")
        assert abs(v1 - (2 * math.log2(5) + 4 + 2 * math.log2(3) + log2_binomial(1, 1))) < 1e-9
        v2 = baseline_pgm_bits(1, eps, 1, 1, "constant-time")
        assert abs(v2 - (1.92 + math.log2(1) + log2_binomial(1, 1))) < 1e-9

    def test_baselines_dominate_lower_bounds(self):
        rng = random.Random(77)
        for _ in range(100):
            ell = rng.randrange(1, 40)
            u = ell * rng.randrange(8, 2000)
            n = max(2 * ell, min(u // 2, ell * rng.randrange(4, 50)))
            eps = rng.choice([1, 2, 4])
            y = tuple(sorted(rng.randrange(1, u + 1) for _ in range(ell)))
            assert baseline_la_bits(ell, eps, u, n) >= lower_bound_c(ell, eps, u, n, y)
            if u >= ell * (2 * eps - 1) + ell and n >= ell * (2 * eps - 1) + 1:
                gaps_ok_x = tuple(range(1, 1 + 2 * eps * ell, 2 * eps))
                if gaps_ok_x[-1] <= u - 2 * eps + 1:
                    assert baseline_pgm_bits(ell, eps, u, n) >= lower_bound_i(
                        ell, eps, u, n, gaps_ok_x
                    )


class TestRedundancyReport:
    def _report(self, setting):
        rng = random.Random(99)
        values = sorted(rng.sample(range(1, 60000), 4000))
        points = PointSeq(values, setting=setting)
        pla = build_optimal_pla(points, 2)
        if setting == COMPRESSION:
            store = encode_c(pla, points)
            params = {
                "ell": store.ell, "n": store.n, "u": store.u,
                "epsilon": store.epsilon, "epsilon_eff": store.epsilon_eff,
                "y": [s.first_y for s in pla.segments],
            }
        else:
            store = encode_i(pla, points)
            params = {
                "ell": store.ell, "n": store.n, "u": store.u,
                "epsilon": store.epsilon, "epsilon_eff": store.epsilon_eff,
                "x": [s.first_x for s in pla.segments],
            }
        return redundancy_report(store.size_bits(), params, setting), store

    def test_fields_and_positive_redundancy(self):
        for setting in (COMPRESSION, INDEXING):
            rep, store = self._report(setting)
            assert rep.redundancy_bits > 0
            assert rep.measured_bits == store.size_bits().structure_bits
            assert rep.total_bits == store.size_bits().total_bits
            assert abs(rep.redundancy_bits - (rep.measured_bits - rep.lower_bound_bits)) < 1e-9
            assert abs(rep.redundancy_per_segment * rep.ell - rep.redundancy_bits) < 1e-6
            text = rep.as_text()
            assert f"ell={rep.ell}" in text and "lower_bound_bits=" in text
