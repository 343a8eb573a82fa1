"""Shared fixtures: deterministic random sequence generation, the
session-scoped instance corpora used by the acceptance suite, and the
Python-integer references the numpy paths are tested against.  Every
hypothesis test draws the same examples on every run (the "reproducible"
profile, loaded here)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from plastore import COMPRESSION, INDEXING, PointSeq, build_optimal_pla
from plastore.pla import interpolate

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

EPSILONS = (1, 2, 4, 8, 16, 32, 64)
MAX_N = 10**5
MAX_U = 10**7


def random_values(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """Strictly increasing values with mean gap ~density.

    Six gap shapes cycle through the corpus: three globally uniform-ish
    ones and three with the macro structure (clusters, ramps, bursts)
    that piecewise linear approximations are built to exploit.
    """
    shape = rng.integers(0, 6)
    if shape == 0:  # geometric-ish gaps
        gaps = rng.geometric(min(1.0, 1.0 / density), size=n)
    elif shape == 1:  # heavy tail
        gaps = np.rint(rng.lognormal(mean=np.log(max(density, 1.001)) - 0.5, sigma=1.0, size=n)).astype(np.int64)
    elif shape == 2:  # near-linear with jitter
        base = max(1, int(round(density)))
        gaps = base + rng.integers(-min(base - 1, 2), 3, size=n)
    elif shape == 3:  # bursty: dense runs with occasional jumps
        gaps = rng.geometric(min(1.0, 2.0 / density), size=n)
        jumps = rng.random(n) < 0.02
        gaps = gaps + jumps * rng.integers(1, int(10 * density) + 2, size=n)
    elif shape == 4:  # clusters: tight runs separated by wide empty spans
        k = int(rng.integers(3, max(4, n // 64)))
        gaps = rng.geometric(0.7, size=n)
        cuts = rng.choice(n, size=k, replace=False)
        gaps[cuts] += rng.integers(1, max(2, int(density * n / k)), size=k)
    else:  # ramps: density drifts smoothly across the sequence
        ramp = np.abs(np.sin(np.linspace(0, rng.uniform(2, 9), n))) * 2 * density + 1
        gaps = np.rint(ramp + rng.uniform(-0.5, 0.5, size=n)).astype(np.int64)
    gaps = np.maximum(gaps.astype(np.int64), 1)
    values = np.cumsum(gaps)
    if values[-1] > MAX_U:
        values = values[values <= MAX_U]
    return values


@dataclass
class Instance:
    index: int
    epsilon: int
    points: PointSeq
    pla: object


def make_instance(setting: str, idx: int, seed: int = 20240811) -> Instance:
    rng = np.random.default_rng([seed, idx, 0 if setting == COMPRESSION else 1])
    epsilon = EPSILONS[idx % len(EPSILONS)]
    n = int(np.exp(rng.uniform(np.log(256), np.log(MAX_N))))
    density = float(np.exp(rng.uniform(np.log(1.1), np.log(min(200.0, MAX_U / n)))))
    values = random_values(rng, n, density)
    if len(values) < 2:
        values = np.arange(1, 34)
    points = PointSeq(values.tolist(), setting=setting)
    pla = build_optimal_pla(points, epsilon)
    return Instance(index=idx, epsilon=epsilon, points=points, pla=pla)


def make_corpus(setting: str, count: int = 200) -> list:
    return [make_instance(setting, i) for i in range(count)]


@pytest.fixture(scope="session")
def corpus_compression():
    return make_corpus(COMPRESSION)


@pytest.fixture(scope="session")
def corpus_indexing():
    return make_corpus(INDEXING)


def max_error_against_truth(setting, segments, points) -> int:
    """Max |prediction - truth| over every position (compression) or every
    key (indexing), evaluated segment by segment with numpy."""
    values = np.asarray(points.values, dtype=np.int64)
    if setting == COMPRESSION:
        xs = np.arange(1, points.n + 1, dtype=np.int64)
        truth = values
        counts = [s.last_x - s.first_x + 1 for s in segments]
    else:
        xs = values
        truth = np.arange(1, points.n + 1, dtype=np.int64)
        counts = [s.last_y - s.first_y + 1 for s in segments]
    assert sum(counts) == points.n
    firsts = np.repeat(np.array([s.first_x for s in segments], dtype=np.int64), counts)
    lasts = np.repeat(np.array([s.last_x for s in segments], dtype=np.int64), counts)
    betas = np.repeat(np.array([s.intercept for s in segments], dtype=np.int64), counts)
    gammas = np.repeat(np.array([s.final_y for s in segments], dtype=np.int64), counts)
    dx = np.maximum(lasts - firsts, 1)
    pred = np.where(lasts == firsts, betas, (xs - firsts) * (gammas - betas) // dx + betas)
    return int(np.max(np.abs(pred - truth)))


def exact_max_error(pla, points) -> int:
    """Max |prediction - truth| over every point, one Python-integer
    interpolate per point: the reference for any magnitude."""
    xs, ys = points.plane_points()
    worst = 0
    j = 0
    for seg in pla.segments:
        while j < points.n and xs[j] <= seg.last_x:
            pred = interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, xs[j])
            worst = max(worst, abs(pred - ys[j]))
            j += 1
    return worst


def reference_from_fields(fields):
    """(words, nbits) of the (value, width) fields laid down one after
    another, least significant bit first, one field at a time in Python
    integers: the reference for succinct.pack_fields."""
    words = []
    pending = 0  # the bits not yet in a word, fewer than 64
    fill = 0
    for value, width in fields:
        if value >> width:  # also true for a negative value
            raise ValueError(f"value {value} does not fit in {width} bits")
        pending |= value << fill
        fill += width
        while fill >= 64:
            words.append(pending & ((1 << 64) - 1))
            pending >>= 64
            fill -= 64
    nbits = 64 * len(words) + fill
    if fill:
        words.append(pending)
    return words, nbits


def reference_from_ones(length, one_positions):
    """The words of a `length`-bit vector with ones at the given positions,
    one position at a time: the reference for RankSelectIndex.from_ones."""
    words = [0] * ((length + 63) // 64)
    for p in one_positions:
        if not 0 <= p < length:
            raise ValueError(f"bit position {p} out of range [0, {length})")
        words[p >> 6] |= 1 << (p & 63)
    return words
