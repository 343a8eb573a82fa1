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

from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, index
from typing import NamedTuple

import numpy as np

from .errors import CoverageError

COMPRESSION = "compression"
INDEXING = "indexing"
SETTINGS = (COMPRESSION, INDEXING)

_CHUNK = 8192  # points per step of the kernels, so their temporaries stay small
_INT64_SAFE = 1 << 62  # the kernels run at int64 only if every plane coordinate is below this
_GUARD = float(1 << 61)  # ... and every segment's float64 bound on its largest term is below this


class PointSeq:
    """A strictly increasing integer sequence of values >= 1, held as
    Python ints: numpy integers are converted, other numbers refused."""

    __slots__ = ("values", "setting")

    def __init__(self, values, setting=COMPRESSION):
        ints = map(index, values)
        try:
            values = tuple(ints)
        except TypeError as exc:
            raise ValueError(f"values must be integers: {exc}") from None
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


def segment_columns(segments, *scalars):
    """The six fields of `segments` as columns first_x, last_x, intercept,
    final_y, first_y, last_y (rows of one array), read in one pass:
    int64 if every field, and every one of the non-negative `scalars`,
    is below _INT64_SAFE in magnitude, so that a sum or difference of two
    stays below 2^63, otherwise object arrays of Python ints.  numpy
    integers are converted; ValueError for any other field that is not
    an integer."""
    try:
        try:  # array("q") takes integers as operator.index does; numpy would truncate a float
            fields = np.frombuffer(array("q", list(chain.from_iterable(segments))), np.int64)
            small = max(scalars, default=0) < _INT64_SAFE
            small = small and -_INT64_SAFE < fields.min(initial=0) and fields.max(initial=0) < _INT64_SAFE
        except OverflowError:
            small = False
        if not small:
            fields = np.fromiter(map(index, chain.from_iterable(segments)), object, 6 * len(segments))
    except TypeError as exc:
        raise ValueError(f"segment fields must be integers: {exc}") from None
    return fields.reshape(-1, 6).T.copy()


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


# The kernels: every segment at once, the points in chunks of _CHUNK, in
# one of two dtypes chosen once per input.  A kernel runs at int64 when
# every coordinate is below _INT64_SAFE, its slope terms or anchors fit
# in int64, and a float64 estimate of the largest term each segment forms
# stays below _GUARD; float64 errs by far less than the factor 4 between
# _GUARD and 2^63, so no term overflows.  Otherwise it runs the same code
# on object arrays of Python ints, exact at any size.

def _plane_views(points: PointSeq):
    """(xs, ys) of the points as indexable sequences of Python ints, without copying."""
    ranks = range(1, points.n + 1)
    return (ranks, points.values) if points.setting == COMPRESSION else (points.values, ranks)


def _plane_arrays(points: PointSeq):
    """(xs, ys) as int64 arrays, or as object arrays if a coordinate reaches _INT64_SAFE."""
    dtype = object if points.n and points.values[-1] >= _INT64_SAFE else np.int64
    values = np.array(points.values, dtype=dtype)
    ranks = np.arange(1, points.n + 1, dtype=np.int64).astype(dtype, copy=False)
    return (ranks, values) if points.setting == COMPRESSION else (values, ranks)


def _objects(*arrays):
    """The arrays as object arrays of Python ints."""
    return tuple(a.astype(object) for a in arrays)


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


def _slope_terms(slopes, dtype):
    """The slope intervals as an (ell, 4) array of `dtype`, a one-point
    segment's as slope 0 (0/1); OverflowError if a term does not fit."""
    terms = chain.from_iterable(sl or (0, 1, 0, 1) for sl in slopes)
    return np.fromiter(terms, dtype=dtype, count=4 * len(slopes)).reshape(-1, 4)


def _midpoint_slopes(terms):
    """(num, den): each segment's midpoint slope num/den (den > 0) in
    lowest terms, from its `_slope_terms`."""
    lo_n, lo_d, hi_n, hi_d = terms.T
    num = lo_n * hi_d + hi_n * lo_d
    den = 2 * lo_d * hi_d  # > 0: lo_d and hi_d are x-gaps
    g = np.gcd(num, den)
    return num // g, den // g


def _anchors(plane, starts, ends, slopes):
    """(betas, gammas): `_kernel_anchors` of every segment, at int64 if
    every slope term fits and every term the rounding forms passes the
    guard, otherwise on object arrays."""
    if plane[0].dtype == np.int64:
        try:
            terms = _slope_terms(slopes, np.int64)
        except OverflowError:
            terms = None
        if terms is not None:
            lo_n, lo_d, hi_n, hi_d = terms.T.astype(np.float64)
            if (np.abs(lo_n) * hi_d + np.abs(hi_n) * lo_d < _GUARD).all() and (2.0 * lo_d * hi_d < _GUARD).all():
                num, den = _midpoint_slopes(terms)
                xs, ys = plane
                # |t| <= y*den + |num|*dx, and gamma's numerator is below 8*|num|*dx + (4*y + 2)*den
                if (8.0 * np.abs(num) * (xs[ends] - xs[starts]) + (4.0 * ys[ends] + 2.0) * den < _GUARD).all():
                    return _kernel_anchors(plane, starts, ends, num, den)
    return _kernel_anchors(_objects(*plane), starts, ends, *_midpoint_slopes(_slope_terms(slopes, object)))


def _kernel_anchors(plane, starts, ends, num, den):
    """(betas, gammas) of every segment, in the arrays' dtype: the values
    at its first and last x of the line of slope num/den centred between
    its points' floor and ceiling offsets, rounded to the nearest
    integers, halves up."""
    xs, ys = plane
    x0 = xs[starts]
    t_max = ys[starts] * den  # t = y*den - num*(x - x0) at the segment's first point
    t_min = t_max.copy()
    for pts, segs, local, k in _chunks(starts, len(xs)):
        t = xs[pts] - x0[k]
        t *= num[k]
        np.subtract(ys[pts] * den[k], t, out=t)
        np.maximum(t_max[segs], np.maximum.reduceat(t, local), out=t_max[segs])
        np.minimum(t_min[segs], np.minimum.reduceat(t, local), out=t_min[segs])
    t = t_max + t_min
    # beta = a*x0 + b_mid and gamma = a*x1 + b_mid, with b_mid = t / (2*den)
    betas = (2 * t + 2 * den) // (4 * den)
    gammas = (2 * (2 * num * (xs[ends] - x0) + t) + 2 * den) // (4 * den)
    return betas, gammas


def _kernel_errors(plane, starts, ends, betas, gammas):
    """Each segment's max |predicted - true|, in the arrays' dtype."""
    xs, ys = plane
    x0 = xs[starts]
    dg = gammas - betas
    dx = np.maximum(xs[ends] - x0, 1)  # a one-point segment predicts beta at its only x, x0
    errors = np.zeros(len(starts), dtype=xs.dtype)
    for pts, segs, local, k in _chunks(starts, len(xs)):
        err = xs[pts] - x0[k]
        err *= dg[k]
        err //= dx[k]
        err += betas[k]
        err -= ys[pts]
        np.abs(err, out=err)
        np.maximum(errors[segs], np.maximum.reduceat(err, local), out=errors[segs])
    return errors


def _max_errors(plane, starts, ends, betas, gammas) -> list:
    """Max |predicted - true| of each segment: the one over points
    starts[i]..ends[i] (int64 arrays) with anchors betas[i], gammas[i]
    (int sequences or arrays), by `_kernel_errors`, at int64 if every
    anchor fits and every term the scan forms passes the guard, otherwise
    on object arrays.  `plane` is `_plane_arrays` of the points."""
    try:
        b, g = np.asarray(betas, dtype=np.int64), np.asarray(gammas, dtype=np.int64)
    except OverflowError:
        b = None
    if b is not None and plane[0].dtype == np.int64:
        xs, ys = plane
        fb, fg = np.abs(b.astype(np.float64)), np.abs(g.astype(np.float64))
        # |(x - x0)*(gamma - beta)| <= dx*(|beta| + |gamma|), and |predicted - true| is below that + |beta| + y
        if ((xs[ends] - xs[starts]) * (fb + fg) + fb + ys[ends] < _GUARD).all():
            return _kernel_errors(plane, starts, ends, b, g).tolist()
    b, g = np.array(betas, dtype=object), np.array(gammas, dtype=object)
    return _kernel_errors(_objects(*plane), starts, ends, b, g).tolist()


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
    plane = _plane_arrays(points)  # built once: the error scan takes it too
    betas, gammas = _anchors(plane, starts, ends, slopes)
    eps_eff = max(_max_errors(plane, starts, ends, betas, gammas), default=0)
    if eps_eff > epsilon + 3:
        raise RuntimeError(f"rounded error {eps_eff} exceeds epsilon + 3")
    betas, gammas = betas.tolist(), gammas.tolist()
    # the value coordinates are the sequence's own int objects, not copies
    value_at = points.values.__getitem__
    values = list(map(value_at, starts.tolist())), list(map(value_at, ends.tolist()))
    ranks = (starts + 1).tolist(), (ends + 1).tolist()
    (first_x, last_x), (first_y, last_y) = (ranks, values) if points.setting == COMPRESSION else (values, ranks)
    # tuple.__new__ skips the named tuple's Python-level constructor, half the cost here
    segments = list(map(tuple.__new__, repeat(Segment), zip(first_x, last_x, betas, gammas, first_y, last_y)))
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
    starts, ends = (np.fromiter(map(attrgetter(name), segs), dtype=np.int64, count=len(segs)) - 1 for name in ranks)
    betas = [seg.intercept for seg in segs]
    gammas = [seg.final_y for seg in segs]
    return starts, ends, _max_errors(_plane_arrays(points), starts, ends, betas, gammas)


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
    for seg, s, e, err in zip(pla.segments, starts.tolist(), ends.tolist(), errors):
        if err > bound:
            for x, y in zip(xs[s:e + 1], ys[s:e + 1]):
                pred = interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, x)
                if abs(pred - y) > bound:
                    bad.append((x, pred, y))
    return bad
