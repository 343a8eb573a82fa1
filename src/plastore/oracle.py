"""Brute-force references: exhaustive parameter-tuple enumeration behind
the two counting formulas, exhaustive minimal segmentation, and direct
predict evaluation.  Everything here trades speed for independence from
the production code paths it checks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import BudgetError, CoverageError
from .pla import COMPRESSION, INDEXING, PointSeq, Pla, interpolate

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_MAX_N = 14  # the exhaustive minimal segmentation is exponential in n


@dataclass
class EnumSpec:
    """Parameters of one exhaustive enumeration run.

    Exactly one of fixed_y (compression) / fixed_x (indexing) is given.
    `budget` caps the number of elementary enumeration steps executed.
    """

    ell: int
    epsilon: int
    u: int
    n: int
    fixed_y: tuple = None
    fixed_x: tuple = None
    budget: int = DEFAULT_BUDGET


class _Work:
    __slots__ = ("steps", "budget")

    def __init__(self, budget):
        self.steps = 0
        self.budget = budget

    def charge(self, k=1):
        self.steps += k
        if self.steps > self.budget:
            raise BudgetError(f"enumeration exceeded its budget of {self.budget} steps")


def _interval_ways(lo, hi, work):
    """Count integers in [lo, hi] by literal iteration."""
    ways = 0
    for _ in range(lo, hi + 1):
        ways += 1
    work.charge(max(ways, 1))
    return ways


def enumerate_pla_c(spec: EnumSpec) -> int:
    """Count parameter tuples (x_2..x_l, y'_1..y'_{l-1}, beta_i, gamma_i)
    of valid compression-setting PLAs with the given first covered values.

    Constraint structure: x_1 = 1, x_{i+1} - x_i >= 2, x_l <= n - 1;
    y'_i in [y_i, y_{i+1}] with y'_l = u forced; beta_i within epsilon of
    y_i and gamma_i within epsilon of y'_i.  The independent per-segment
    choices multiply; split positions are enumerated literally.
    """
    l, eps, u, n = spec.ell, spec.epsilon, spec.u, spec.n
    if l < 1 or eps < 1:
        raise ValueError("need ell >= 1 and epsilon >= 1")
    y = spec.fixed_y
    if y is None or len(y) != l:
        raise ValueError("fixed_y must supply exactly ell first covered values")
    if any(y[i] > y[i + 1] for i in range(l - 1)) or y[0] < 1 or y[-1] > u:
        raise ValueError("fixed_y must be non-decreasing within [1, u]")
    work = _Work(spec.budget)

    # per-segment factor: intercept and final-value choices, and for
    # i < l the last covered value ranging over [y_i, y_{i+1}]
    factor = 1
    for i in range(l):
        factor *= _interval_ways(y[i] - eps, y[i] + eps, work)  # beta_i
        if i < l - 1:
            inner = 0
            for v in range(y[i], y[i + 1] + 1):  # y'_i
                inner += _interval_ways(v - eps, v + eps, work)  # gamma_i
            factor *= inner
        else:
            factor *= _interval_ways(u - eps, u + eps, work)  # gamma_l at y'_l = u

    splits = _count_splits(first=1, remaining=l - 1, min_gap=2, last_max=n - 1, work=work)
    return splits * factor


def enumerate_pla_i(spec: EnumSpec) -> int:
    """Count parameter tuples of valid indexing-setting PLAs with the given
    first covered keys: first positions y_2..y_l with gaps >= 2*eps and
    y_l <= n - 2*eps + 1, last keys x'_i in [x_i + 1, x_{i+1} - 1] with
    x'_l = u forced, beta_i within epsilon of y_i, gamma_i within epsilon
    of y_{i+1} - 1 (y_{l+1} taken as n + 1)."""
    l, eps, u, n = spec.ell, spec.epsilon, spec.u, spec.n
    if l < 1 or eps < 1:
        raise ValueError("need ell >= 1 and epsilon >= 1")
    x = spec.fixed_x
    if x is None or len(x) != l:
        raise ValueError("fixed_x must supply exactly ell first covered keys")
    if any(x[i + 1] - x[i] < 2 * eps for i in range(l - 1)) or x[0] < 1 or x[-1] > u - 2 * eps + 1:
        raise ValueError("fixed_x must increase by >= 2*eps and end by u - 2*eps + 1")
    work = _Work(spec.budget)

    xprime_factor = 1
    for i in range(l - 1):
        xprime_factor *= _interval_ways(x[i] + 1, x[i + 1] - 1, work)

    total = 0
    # enumerate the first covered positions y_2..y_l literally
    def recurse(i, prev_y, partial):
        nonlocal total
        if i == l:
            total += partial
            return
        # partial already includes beta/gamma ways for segments < i
        for yi in range(prev_y + 2 * eps, n - 2 * eps + 1 + 1):
            work.charge()
            ways = _interval_ways(yi - eps, yi + eps, work)  # beta_i
            gways = _interval_ways(yi - 1 - eps, yi - 1 + eps, work)  # gamma_{i-1}
            recurse(i + 1, yi, partial * ways * gways)

    if 1 > n - 2 * eps + 1:
        return 0  # even y_1 = 1 violates y_l <= n - 2*eps + 1
    beta1 = _interval_ways(1 - eps, 1 + eps, work)
    if l == 1:
        total = beta1
    else:
        recurse(1, 1, beta1)
    gamma_l = _interval_ways(n - eps, n + eps, work)  # last covered position is n
    return total * gamma_l * xprime_factor


def _count_splits(first, remaining, min_gap, last_max, work):
    """Number of ways to place `remaining` further split positions after
    `first`, each at least `min_gap` beyond the previous, ending <= last_max."""
    if remaining == 0:
        return 1 if first <= last_max else 0
    total = 0
    for nxt in range(first + min_gap, last_max + 1):
        work.charge()
        total += _count_splits(nxt, remaining - 1, min_gap, last_max, work)
    return total


def _pair_feasible_table(xs, ys, eps):
    """feas[s][e]: some line fits points s..e within eps; decided by the
    pairwise slope-interval criterion with exact integer arithmetic."""
    n = len(xs)
    feas = [[False] * n for _ in range(n)]
    for s in range(n):
        feas[s][s] = True
        lo_n = lo_d = hi_n = hi_d = None
        for e in range(s + 1, n):
            for j in range(s, e):
                dx = xs[e] - xs[j]
                dy = ys[e] - ys[j]
                cn, cd = dy - 2 * eps, dx
                if lo_n is None or cn * lo_d > lo_n * cd:
                    lo_n, lo_d = cn, cd
                cn = dy + 2 * eps
                if hi_n is None or cn * hi_d < hi_n * cd:
                    hi_n, hi_d = cn, cd
            if lo_n * hi_d > hi_n * lo_d:
                break
            feas[s][e] = True
    return feas


def min_segments_bruteforce(points: PointSeq, epsilon: int) -> int:
    """Minimum number of contiguous blocks, each admitting a line within
    epsilon, found by direct search over all partitions."""
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    n = points.n
    if n > BRUTE_FORCE_MAX_N:
        raise BudgetError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 0:
        raise ValueError("empty sequence")
    if n == 1:
        return 1
    xs, ys = points.plane_points()
    feas = _pair_feasible_table(xs, ys, epsilon)
    best = n + 1

    def search(i, used):
        nonlocal best
        if used + 1 >= best:
            return
        row = feas[i]
        for e in range(n - 1, i - 1, -1):  # longest block first
            if row[e]:
                if e == n - 1:
                    if used + 1 < best:
                        best = used + 1
                else:
                    search(e + 1, used + 1)

    search(0, 0)
    return best


def min_segments_dp(points: PointSeq, epsilon: int) -> int:
    """Independent recomputation of the brute-force minimum via a
    shortest-cover table over the same feasibility relation."""
    n = points.n
    if n > BRUTE_FORCE_MAX_N:
        raise BudgetError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 1:
        return 1
    xs, ys = points.plane_points()
    feas = _pair_feasible_table(xs, ys, epsilon)
    INF = n + 1
    dp = [0] + [INF] * n
    for e in range(n):
        for s in range(e + 1):
            if feas[s][e] and dp[s] + 1 < dp[e + 1]:
                dp[e + 1] = dp[s] + 1
    return dp[n]


def predict_reference(pla: Pla, x: int) -> int:
    """Floor interpolation on the covering segment's stored anchors, with
    the segment found by plain search; no succinct machinery involved."""
    firsts = [seg.first_x for seg in pla.segments]
    i = bisect_right(firsts, x) - 1
    if i < 0:
        raise CoverageError(f"x={x} precedes the first segment")
    seg = pla.segments[i]
    if x > seg.last_x:
        raise CoverageError(f"x={x} is not covered by any segment")
    return interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, x)
