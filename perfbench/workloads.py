"""Seeded inputs for the benchmark workloads.

The library only ever sees what this module makes: strictly increasing
integer lists, one epsilon per instance, and query lists.  The same seed
gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from plastore import COMPRESSION, INDEXING


@dataclass
class Instance:
    name: str
    setting: str
    epsilon: int
    values: list
    queries: list
    truth: list  # per query: true value (compression), rank of a stored key (indexing) or None

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class Workload:
    name: str
    instances: list
    layer_calls: int  # seeded calls per primitive, structure and traced pass

    @property
    def points(self) -> int:
        return sum(inst.n for inst in self.instances)


def _instance(rng, name, setting, epsilon, mean_gap, n, count) -> Instance:
    """Geometric gaps with the given mean.  Queries: compression, uniform
    positions; indexing, half stored keys and half uniform keys in
    [v_1, u] (keys below v_1 are refused by design)."""
    vals = np.cumsum(rng.geometric(1 / mean_gap, size=n))
    if setting == COMPRESSION:
        xs = rng.integers(1, n + 1, size=count)
        return Instance(name, setting, epsilon, vals.tolist(), xs.tolist(), vals[xs - 1].tolist())
    stored = vals[rng.integers(0, n, size=count - count // 2)]
    uniform = rng.integers(vals[0], vals[-1] + 1, size=count // 2)
    xs = rng.permutation(np.concatenate([stored, uniform]))
    idx = np.searchsorted(vals, xs)
    hit = vals[np.minimum(idx, n - 1)] == xs
    truth = [int(i) + 1 if h else None for i, h in zip(idx.tolist(), hit.tolist())]
    return Instance(name, setting, epsilon, vals.tolist(), xs.tolist(), truth)


def compress_dense(seed: int, scale: float = 1.0) -> Workload:
    """~3 points per segment: per-segment work dominates; dense rs bitvector."""
    rng = np.random.default_rng([seed, 1])
    n = max(64, round(50_000 * scale))
    inst = _instance(rng, "c0", COMPRESSION, 4, 20, n, max(20, round(1000 * scale)))
    return Workload("compress-dense", [inst], max(20, round(500 * scale)))


def index_sparse(seed: int, scale: float = 1.0) -> Workload:
    """~1000 keys per segment: one 1-bit per ~1e5 bits of the rs bitvector."""
    rng = np.random.default_rng([seed, 2])
    n = max(64, round(40_000 * scale))
    inst = _instance(rng, "i0", INDEXING, 16, 100, n, max(20, round(1000 * scale)))
    return Workload("index-sparse", [inst], max(20, round(100 * scale)))


WORKLOADS = {
    "compress-dense": compress_dense,
    "index-sparse": index_sparse,
}
