"""Optimal error-bounded piecewise linear approximation of monotone
integer sequences, with integer endpoint rounding.

A sequence of strictly increasing integers is mapped to points in one of
two ways: the *compression* setting approximates value by position (points
(i, v_i)), the *indexing* setting approximates position by value (points
(v_i, i)).  ``build_optimal_pla`` produces the minimum number of segments
such that every point lies within vertical distance epsilon of its
covering segment, then rounds each segment's two anchor ordinates to
integers; the verified maximum error after rounding never exceeds
epsilon + 3.

The construction keeps, per growing segment, the exact interval of
feasible slopes.  A line y = a*x + b fits points {(x_j, y_j)} within
epsilon iff for every pair j < k the slope satisfies
(dy - 2*eps)/dx <= a <= (dy + 2*eps)/dx; the binding pairs live on two
convex hulls (ceiling points y+eps and floor points y-eps), which are
maintained incrementally with integer cross products, so feasibility is
decided exactly and each point costs amortized constant work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoverageError

COMPRESSION = "compression"
INDEXING = "indexing"
SETTINGS = (COMPRESSION, INDEXING)

_NP_SCAN_MIN = 48  # below this segment length a plain loop beats numpy
_INT64_SAFE = 1 << 62  # numpy scans only magnitudes below this, so no int64 sum overflows


class PointSeq:
    """A strictly increasing integer sequence of values >= 1."""

    __slots__ = ("values", "setting")

    def __init__(self, values, setting=COMPRESSION):
        values = tuple(values)
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}")
        if values and values[0] < 1:
            raise ValueError("values must be >= 1")
        for i in range(1, len(values)):
            if values[i] <= values[i - 1]:
                raise ValueError(f"values must be strictly increasing (index {i})")
        self.values = values
        self.setting = setting

    @property
    def n(self) -> int:
        return len(self.values)

    def plane_points(self):
        """(xs, ys) lists of the points this sequence maps to."""
        if self.setting == COMPRESSION:
            return list(range(1, self.n + 1)), list(self.values)
        return list(self.values), list(range(1, self.n + 1))

    def __repr__(self):
        return f"PointSeq(n={self.n}, setting={self.setting!r})"


class Segment(NamedTuple):
    """One PLA segment with integer anchors.

    first_x/last_x are the first and last covered x-coordinates,
    first_y/last_y the corresponding true ordinates, and
    intercept/final_y the segment's (integer) approximation at first_x
    and last_x.
    """

    first_x: int
    last_x: int
    intercept: int
    final_y: int
    first_y: int
    last_y: int


@dataclass
class Pla:
    segments: list
    epsilon: int
    epsilon_eff: int
    setting: str

    @property
    def ell(self) -> int:
        return len(self.segments)


def optimal_spans(xs, ys, eps):
    """Greedy longest feasible segments; optimal because feasibility of a
    point range is closed under taking subranges."""
    n = len(xs)
    spans = []
    slopes = []
    s = 0
    while s < n:
        if s == n - 1:
            spans.append((s, s))
            slopes.append(None)
            break
        x0 = xs[s]
        y0 = ys[s]
        fhull = [(x0, y0 - eps)]  # floor points, upper hull (bounds slope above)
        chull = [(x0, y0 + eps)]  # ceiling points, lower hull (bounds slope below)
        fhead = 0
        chead = 0
        lo_n = lo_d = hi_n = hi_d = None
        k = s + 1
        while k < n:
            xk = xs[k]
            yk = ys[k]
            fy = yk - eps
            cy = yk + eps
            # Tightest upper bound through the new ceiling point: walk the
            # floor hull to the tangent minimizing the slope to (xk, cy).
            h = fhead
            fx0, fy0 = fhull[h]
            while h + 1 < len(fhull):
                fx1, fy1 = fhull[h + 1]
                if (cy - fy1) * (xk - fx0) <= (cy - fy0) * (xk - fx1):
                    h += 1
                    fx0, fy0 = fx1, fy1
                else:
                    break
            fhead = h
            c_hi_n = cy - fy0
            c_hi_d = xk - fx0
            # Tightest lower bound through the new floor point.
            h = chead
            cx0, cy0 = chull[h]
            while h + 1 < len(chull):
                cx1, cy1 = chull[h + 1]
                if (fy - cy1) * (xk - cx0) >= (fy - cy0) * (xk - cx1):
                    h += 1
                    cx0, cy0 = cx1, cy1
                else:
                    break
            chead = h
            c_lo_n = fy - cy0
            c_lo_d = xk - cx0
            if hi_n is None or c_hi_n * hi_d < hi_n * c_hi_d:
                t_hi_n, t_hi_d = c_hi_n, c_hi_d
            else:
                t_hi_n, t_hi_d = hi_n, hi_d
            if lo_n is None or c_lo_n * lo_d > lo_n * c_lo_d:
                t_lo_n, t_lo_d = c_lo_n, c_lo_d
            else:
                t_lo_n, t_lo_d = lo_n, lo_d
            if t_lo_n * t_hi_d > t_hi_n * t_lo_d:
                break  # no line fits [s..k]; close the segment at k-1
            lo_n, lo_d, hi_n, hi_d = t_lo_n, t_lo_d, t_hi_n, t_hi_d
            while len(fhull) - fhead >= 2:
                ax, ay = fhull[-2]
                bx, by = fhull[-1]
                if (by - ay) * (xk - ax) <= (fy - ay) * (bx - ax):
                    fhull.pop()
                else:
                    break
            fhull.append((xk, fy))
            while len(chull) - chead >= 2:
                ax, ay = chull[-2]
                bx, by = chull[-1]
                if (by - ay) * (xk - ax) >= (cy - ay) * (bx - ax):
                    chull.pop()
                else:
                    break
            chull.append((xk, cy))
            k += 1
        spans.append((s, k - 1))
        slopes.append((lo_n, lo_d, hi_n, hi_d))
        s = k
    return spans, slopes


def interpolate(first_x: int, last_x: int, beta: int, gamma: int, x: int) -> int:
    """Floor interpolation between the two integer anchors of a segment."""
    if last_x == first_x:
        return beta
    return (x - first_x) * (gamma - beta) // (last_x - first_x) + beta


def _scan_arrays(xs, ys):
    """The plane points as int64 arrays if every coordinate fits, else the
    lists themselves, which _segment_max_error scans with Python ints."""
    if xs and max(xs[-1], ys[-1]) < _INT64_SAFE:
        return np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    return xs, ys


def _segment_max_error(xs_arr, ys_arr, s, e, x0, x1, beta, gamma):
    if e == s:
        return abs(beta - int(ys_arr[s]))
    # numpy only where every (x - x0)*(gamma - beta) // dx + beta fits in int64
    if (e - s + 1 < _NP_SCAN_MIN or isinstance(xs_arr, list)
            or (x1 - x0) * abs(gamma - beta) + abs(beta) >= _INT64_SAFE):
        dy = gamma - beta
        dx = x1 - x0
        worst = 0
        for j in range(s, e + 1):
            p = (int(xs_arr[j]) - x0) * dy // dx + beta
            d = p - int(ys_arr[j])
            if d < 0:
                d = -d
            if d > worst:
                worst = d
        return worst
    xs = xs_arr[s : e + 1]
    pred = (xs - x0) * (gamma - beta) // (x1 - x0) + beta
    return int(np.max(np.abs(pred - ys_arr[s : e + 1])))


def _nearest(num: int, den: int) -> int:
    """Round num/den (den > 0) to the nearest integer, halves up."""
    return (2 * num + den) // (2 * den)


def round_to_integer_endpoints(spans, slopes, epsilon: int, points: PointSeq) -> Pla:
    """Fix integer anchor ordinates for each segment of `optimal_spans`:
    `spans` holds its (first, last) point indices and `slopes` its exact
    feasible slope interval ((lo_num, lo_den, hi_num, hi_den), or None for
    a one-point segment).

    The representative line is the midpoint of the feasible slope interval
    with the intercept centered in its own feasible range; its values at
    the first and last covered x are rounded to the nearest integers.
    The resulting maximum error is recomputed by a full scan and checked
    to stay within epsilon + 3.
    """
    xs, ys = points.plane_points()
    xs_arr, ys_arr = _scan_arrays(xs, ys)
    segments = []
    eps_eff = 0
    for (s, e), sl in zip(spans, slopes):
        if s == e:
            beta = gamma = ys[s]
        else:
            lo_n, lo_d, hi_n, hi_d = sl
            num_a = lo_n * hi_d + hi_n * lo_d
            den_a = 2 * lo_d * hi_d  # > 0: lo_d and hi_d are x-gaps
            g = math.gcd(num_a, den_a)
            if g > 1:
                num_a //= g
                den_a //= g
            x0 = xs[s]
            t_min = t_max = ys[s] * den_a - num_a * (xs[s] - x0)
            for j in range(s + 1, e + 1):
                t = ys[j] * den_a - num_a * (xs[j] - x0)
                if t > t_max:
                    t_max = t
                elif t < t_min:
                    t_min = t
            # beta_real = a*x0 + b_mid, gamma_real = a*x1 + b_mid, with
            # b_mid centered between the tightest floor/ceiling offsets.
            beta = _nearest(t_max + t_min, 2 * den_a)
            gamma = _nearest(2 * num_a * (xs[e] - x0) + t_max + t_min, 2 * den_a)
        err = _segment_max_error(xs_arr, ys_arr, s, e, xs[s], xs[e], beta, gamma)
        if err > eps_eff:
            eps_eff = err
        segments.append(Segment(first_x=xs[s], last_x=xs[e], intercept=beta, final_y=gamma,
                                first_y=ys[s], last_y=ys[e]))
    if eps_eff > epsilon + 3:
        raise RuntimeError(f"rounded error {eps_eff} exceeds epsilon + 3")
    return Pla(segments, epsilon, eps_eff, points.setting)


def build_optimal_pla(points: PointSeq, epsilon: int) -> Pla:
    """Minimum-segment PLA with integer anchors and verified max error."""
    if not isinstance(epsilon, int) or epsilon < 1:
        raise ValueError("epsilon must be an integer >= 1")
    if points.n == 0:
        raise ValueError("cannot build a PLA over an empty sequence")
    xs, ys = points.plane_points()
    spans, slopes = optimal_spans(xs, ys, epsilon)
    return round_to_integer_endpoints(spans, slopes, epsilon, points)


def verify_error(pla: Pla, points: PointSeq) -> int:
    """Maximum |predicted - true| over all points, by direct evaluation.

    Raises CoverageError if the segments do not partition the sequence.
    """
    xs, ys = points.plane_points()
    xs_arr, ys_arr = _scan_arrays(xs, ys)
    n = points.n
    worst = 0
    next_idx = 0
    for seg in pla.segments:
        if pla.setting == COMPRESSION:
            s, e = seg.first_x - 1, seg.last_x - 1
        else:
            s, e = seg.first_y - 1, seg.last_y - 1
        if s != next_idx or e >= n or xs[s] != seg.first_x or xs[e] != seg.last_x:
            raise CoverageError(f"segment {seg} does not cover the expected point range")
        err = _segment_max_error(xs_arr, ys_arr, s, e, seg.first_x, seg.last_x, seg.intercept, seg.final_y)
        if err > worst:
            worst = err
        next_idx = e + 1
    if next_idx != n:
        raise CoverageError(f"points {next_idx + 1}..{n} are not covered by any segment")
    return worst
