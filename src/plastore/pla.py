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

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import CoverageError

COMPRESSION = "compression"
INDEXING = "indexing"
SETTINGS = (COMPRESSION, INDEXING)

_CHUNK = 8192  # points per step of the int64 kernels, so their temporaries stay small
_INT64_SAFE = 1 << 62  # the kernels take only plane coordinates below this
_GUARD = float(1 << 61)  # a segment's float64 bound on its largest int64 term must stay below this


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


def _nearest(num: int, den: int) -> int:
    """Round num/den (den > 0) to the nearest integer, halves up."""
    return (2 * num + den) // (2 * den)


# The exact path: one segment at a time, in Python integers of any size.
# It is the reference the int64 kernels below reproduce, and it takes the
# segments (or the whole input) that fail their guards.

def _plane_views(points: PointSeq):
    """(xs, ys) of the points as indexable sequences of Python ints, without copying."""
    ranks = range(1, points.n + 1)
    return (ranks, points.values) if points.setting == COMPRESSION else (points.values, ranks)


def _exact_anchors(xs, ys, s: int, e: int, slope):
    """(beta, gamma) of the segment over points s..e whose feasible slope
    interval is `slope` (None for one point)."""
    if s == e:
        return ys[s], ys[s]
    lo_n, lo_d, hi_n, hi_d = slope
    num_a = lo_n * hi_d + hi_n * lo_d  # the midpoint slope is num_a / den_a
    den_a = 2 * lo_d * hi_d  # > 0: lo_d and hi_d are x-gaps
    x0 = xs[s]
    ts = [ys[j] * den_a - num_a * (xs[j] - x0) for j in range(s, e + 1)]
    t = max(ts) + min(ts)
    # beta_real = a*x0 + b_mid, gamma_real = a*x1 + b_mid, with
    # b_mid centered between the tightest floor/ceiling offsets.
    return _nearest(t, 2 * den_a), _nearest(2 * num_a * (xs[e] - x0) + t, 2 * den_a)


def _exact_points(xs, ys, s: int, e: int, beta: int, gamma: int) -> list:
    """(x, predicted, true) at points s..e of the segment with anchors beta, gamma."""
    x0, x1 = xs[s], xs[e]
    return [(xs[j], interpolate(x0, x1, beta, gamma, xs[j]), ys[j]) for j in range(s, e + 1)]


# The int64 kernels: every segment at once, the points in chunks of _CHUNK.
# A segment enters a kernel only if a float64 estimate of the largest term
# it forms stays below _GUARD; float64 errs by far less than the factor 4
# between _GUARD and 2^63, so no term overflows.

def _plane_arrays(points: PointSeq):
    """(xs, ys) as int64 arrays, or None if a coordinate reaches _INT64_SAFE."""
    if points.n == 0 or points.values[-1] >= _INT64_SAFE:
        return None
    values = np.array(points.values, dtype=np.int64)
    ranks = np.arange(1, points.n + 1, dtype=np.int64)
    return (ranks, values) if points.setting == COMPRESSION else (values, ranks)


def _chunks(starts, n: int):
    """Yield, for each chunk of the n points: its slice of the points, the
    slice of the segments that meet it (`starts` holds each segment's first
    point index), their offsets in the chunk (0 for one begun before it),
    as `reduceat` takes them, and each point's segment index."""
    for p0 in range(0, n, _CHUNK):
        p1 = min(p0 + _CHUNK, n)
        i0 = int(np.searchsorted(starts, p0, side="right")) - 1
        i1 = int(np.searchsorted(starts, p1))
        local = np.maximum(starts[i0:i1] - p0, 0)
        seg = np.repeat(np.arange(i0, i1), np.diff(local, append=p1 - p0))
        yield slice(p0, p1), slice(i0, i1), local, seg


def _int64(values, count: int):
    """The `count` ints of `values` as an int64 array, or None if one does
    not fit in int64."""
    try:
        return np.fromiter(values, dtype=np.int64, count=count)
    except OverflowError:
        return None


def _int64_slopes(slopes):
    """The slope intervals as an (ell, 4) int64 array, a one-point segment's
    as slope 0 (0/1), or None if a term does not fit in int64."""
    terms = _int64(chain.from_iterable(sl or (0, 1, 0, 1) for sl in slopes), 4 * len(slopes))
    return None if terms is None else terms.reshape(-1, 4)


def _kernel_anchors(plane, starts, ends, slopes):
    """(betas, gammas, ok): `_exact_anchors` of every segment as int64
    arrays, valid where `ok` is set; `slopes` is `_int64_slopes`'s array,
    which this overwrites."""
    xs, ys = plane
    lo_n, lo_d, hi_n, hi_d = slopes.T
    ok = (np.abs(lo_n.astype(np.float64)) * hi_d + np.abs(hi_n.astype(np.float64)) * lo_d < _GUARD) & (
        2.0 * lo_d * hi_d < _GUARD)
    slopes[~ok] = (0, 1, 0, 1)  # keeps the skipped segments' terms small
    num = lo_n * hi_d + hi_n * lo_d
    den = 2 * lo_d * hi_d
    g = np.gcd(num, den)
    num //= g
    den //= g
    x0 = xs[starts]
    dx = xs[ends] - x0
    # |t| <= y*den + |num|*dx, and gamma's numerator is below 8*|num|*dx + (4*y + 2)*den
    ok &= 8.0 * np.abs(num) * dx + (4.0 * ys[ends] + 2.0) * den < _GUARD
    num[~ok] = 0
    den[~ok] = 1
    t_max = np.full(len(starts), np.iinfo(np.int64).min)
    t_min = np.full(len(starts), np.iinfo(np.int64).max)
    for pts, segs, local, k in _chunks(starts, len(xs)):
        t = xs[pts] - x0[k]
        t *= num[k]
        np.subtract(ys[pts] * den[k], t, out=t)
        np.maximum(t_max[segs], np.maximum.reduceat(t, local), out=t_max[segs])
        np.minimum(t_min[segs], np.minimum.reduceat(t, local), out=t_min[segs])
    t = t_max + t_min
    betas = (2 * t + 2 * den) // (4 * den)
    gammas = (2 * (2 * num * dx + t) + 2 * den) // (4 * den)
    return betas, gammas, ok


def _kernel_errors(plane, starts, ends, betas, gammas):
    """(errors, ok): each segment's max |predicted - true| as int64, valid
    where `ok` is set."""
    xs, ys = plane
    x0 = xs[starts]
    dx = xs[ends] - x0
    b, g = np.abs(betas.astype(np.float64)), np.abs(gammas.astype(np.float64))
    # |(x - x0)*(gamma - beta)| <= dx*(|beta| + |gamma|), and |predicted - true| is below that + |beta| + y
    ok = dx * (b + g) + b + ys[ends] < _GUARD
    betas = np.where(ok, betas, 0)
    dg = np.where(ok, gammas, 0) - betas
    dx = np.maximum(dx, 1)  # a one-point segment predicts beta at its only x, x0
    errors = np.zeros(len(starts), dtype=np.int64)
    for pts, segs, local, k in _chunks(starts, len(xs)):
        err = xs[pts] - x0[k]
        err *= dg[k]
        err //= dx[k]
        err += betas[k]
        err -= ys[pts]
        np.abs(err, out=err)
        np.maximum(errors[segs], np.maximum.reduceat(err, local), out=errors[segs])
    return errors, ok


def _max_errors(points: PointSeq, plane, starts, ends, betas: list, gammas: list) -> list:
    """Max |predicted - true| of each segment: the one over points
    starts[i]..ends[i] (int64 arrays) with anchors betas[i], gammas[i].
    `plane` is `_plane_arrays(points)`.  The int64 kernel takes every
    segment that passes its guard, the exact path the others, or the
    whole input if a coordinate or an anchor does not fit in int64."""
    ok = np.zeros(len(betas), dtype=bool)
    errors = [0] * len(betas)
    b, g = _int64(betas, len(betas)), _int64(gammas, len(gammas))
    if plane is not None and b is not None and g is not None:
        kernel, ok = _kernel_errors(plane, starts, ends, b, g)
        errors = kernel.tolist()
    xs, ys = _plane_views(points)
    for i in np.flatnonzero(~ok).tolist():
        points_i = _exact_points(xs, ys, int(starts[i]), int(ends[i]), betas[i], gammas[i])
        errors[i] = max(abs(pred - y) for _, pred, y in points_i)
    return errors


def round_to_integer_endpoints(spans, slopes, epsilon: int, points: PointSeq) -> Pla:
    """Fix integer anchor ordinates for each segment of `optimal_spans`:
    `spans` holds its (first, last) point indices and `slopes` its exact
    feasible slope interval ((lo_num, lo_den, hi_num, hi_den), or None for
    a one-point segment).

    The representative line is the midpoint of the feasible slope interval
    with the intercept centered in its own feasible range; its values at
    the first and last covered x are rounded to the nearest integers.
    The resulting maximum error is recomputed at every point and checked
    to stay within epsilon + 3.
    """
    ell = len(spans)
    starts, ends = np.fromiter(chain.from_iterable(spans), dtype=np.int64, count=2 * ell).reshape(-1, 2).T
    plane = _plane_arrays(points)
    int_slopes = _int64_slopes(slopes) if plane is not None else None
    if int_slopes is None:
        betas, gammas, ok = [0] * ell, [0] * ell, np.zeros(ell, dtype=bool)
    else:
        betas, gammas, ok = _kernel_anchors(plane, starts, ends, int_slopes)
        betas, gammas = betas.tolist(), gammas.tolist()
    xs, ys = _plane_views(points)
    for i in np.flatnonzero(~ok).tolist():
        betas[i], gammas[i] = _exact_anchors(xs, ys, *spans[i], slopes[i])
    eps_eff = max(_max_errors(points, plane, starts, ends, betas, gammas), default=0)
    if eps_eff > epsilon + 3:
        raise RuntimeError(f"rounded error {eps_eff} exceeds epsilon + 3")
    # the value coordinates are the sequence's own int objects, not copies
    value_at = points.values.__getitem__
    values = list(map(value_at, starts.tolist())), list(map(value_at, ends.tolist()))
    ranks = (starts + 1).tolist(), (ends + 1).tolist()
    (first_x, last_x), (first_y, last_y) = (ranks, values) if points.setting == COMPRESSION else (values, ranks)
    segments = list(map(Segment, first_x, last_x, betas, gammas, first_y, last_y))
    return Pla(segments, epsilon, eps_eff, points.setting)


def build_optimal_pla(points: PointSeq, epsilon: int) -> Pla:
    """Minimum-segment PLA with integer anchors and verified max error."""
    if not isinstance(epsilon, int) or epsilon < 1:
        raise ValueError("epsilon must be an integer >= 1")
    if points.n == 0:
        raise ValueError("cannot build a PLA over an empty sequence")
    spans, slopes = optimal_spans(*points.plane_points(), epsilon)  # the lists go before rounding
    return round_to_integer_endpoints(spans, slopes, epsilon, points)


def _checked_errors(pla: Pla, points: PointSeq):
    """(starts, ends, errors): each segment's first and last point index
    (int64 arrays) and its max |predicted - true|.

    Raises CoverageError if the segments do not partition the sequence.
    """
    xs = _plane_views(points)[0]
    n = points.n
    next_idx = 0
    for seg in pla.segments:
        if pla.setting == COMPRESSION:
            s, e = seg.first_x - 1, seg.last_x - 1
        else:
            s, e = seg.first_y - 1, seg.last_y - 1
        if s != next_idx or not s <= e < n or xs[s] != seg.first_x or xs[e] != seg.last_x:
            raise CoverageError(f"segment {seg} does not cover the expected point range")
        next_idx = e + 1
    if next_idx != n:
        raise CoverageError(f"points {next_idx + 1}..{n} are not covered by any segment")
    segs = pla.segments
    # the point ranks, 1-based, read from the segments' own int objects
    ranks = ("first_x", "last_x") if pla.setting == COMPRESSION else ("first_y", "last_y")
    starts, ends = (_int64(map(attrgetter(name), segs), len(segs)) - 1 for name in ranks)
    betas = [seg.intercept for seg in segs]
    gammas = [seg.final_y for seg in segs]
    return starts, ends, _max_errors(points, _plane_arrays(points), starts, ends, betas, gammas)


def verify_error(pla: Pla, points: PointSeq) -> int:
    """Maximum |predicted - true| over all points, by direct evaluation.

    Raises CoverageError if the segments do not partition the sequence.
    """
    return max(_checked_errors(pla, points)[2], default=0)


def violations(pla: Pla, points: PointSeq, bound: int) -> list:
    """(x, predicted, true) at every point whose error exceeds `bound`, in
    order; only the segments whose max error exceeds it are scanned.

    Raises CoverageError if the segments do not partition the sequence.
    """
    starts, ends, errors = _checked_errors(pla, points)
    xs, ys = _plane_views(points)
    bad = []
    for i, err in enumerate(errors):
        if err > bound:
            seg = pla.segments[i]
            points_i = _exact_points(xs, ys, int(starts[i]), int(ends[i]), seg.intercept, seg.final_y)
            bad += [(x, pred, y) for x, pred, y in points_i if abs(pred - y) > bound]
    return bad
