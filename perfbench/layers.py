"""The benchmark's only contact with plastore internals.

Everything else drives the library through its public functions.  The
per-layer numbers need a little more: the names that build_optimal_pla,
from_bytes and redundancy_report call internally (wrapped in spans during
a traced pass), the succinct structures inside a container (to time each
primitive on the workload's own data), the split of predict into
segment_of, decode_segment and interpolate, and the select sample rate
(to count the words select1 scans, from outside).  A refactor that moves
any of these has to edit this file only.
"""

from __future__ import annotations

import plastore.bounds
import plastore.pla
import plastore.store_compression
import plastore.store_indexing
from plastore.pla import interpolate
from plastore.succinct import SELECT_SAMPLE_RATE

TRACE_PATCHES = [
    (plastore.pla, "optimal_spans", "pla.optimal_spans"),
    (plastore.pla, "round_to_integer_endpoints", "pla.round_to_integer_endpoints"),
    (plastore.store_compression, "unpack_envelope", "container.unpack"),
    (plastore.store_compression, "unpack_components", "container.unpack"),
    (plastore.store_indexing, "unpack_envelope", "container.unpack"),
    (plastore.store_indexing, "unpack_components", "container.unpack"),
    (plastore.bounds, "lower_bound_c", "bounds.lower_bound"),
    (plastore.bounds, "lower_bound_i", "bounds.lower_bound"),
    (plastore.bounds, "baseline_la_bits", "bounds.baselines"),
    (plastore.bounds, "baseline_pgm_bits", "bounds.baselines"),
]


def predict_parts(clock, store, x, mode, tag):
    """predict as its three steps, each in its own span; returns
    (value, ns of the whole)."""
    h = clock.begin(f"store.predict.{mode}", tag)
    hs = clock.begin(f"store.segment_of.{mode}", tag)
    i = store.segment_of(x)
    clock.end(hs)
    hs = clock.begin(f"store.decode_segment.{mode}", tag)
    seg = store.decode_segment(i)
    clock.end(hs)
    hs = clock.begin("pla.interpolate", tag)
    value = interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, x)
    clock.end(hs)
    return value, clock.end(h)


def words_scanned(rs, k: int, pos: int) -> int:
    """Words RankSelectIndex.select1(k) reads to return `pos`: none when
    k is a sampled one-bit, else every word from the sample's to pos's."""
    j = (k - 1) // SELECT_SAMPLE_RATE
    if k == j * SELECT_SAMPLE_RATE + 1:
        return 0
    return (pos >> 6) - (rs.samples[j] >> 6) + 1


def time_primitives(clock, gate, ef_store, rs_store, rng, calls: int, tag) -> list:
    """Time `calls` seeded calls of each succinct primitive, one span
    each, on the structures a predict touches: the first-coordinate
    Elias-Fano (ef mode) and rank/select bitvector (rs mode), the B fields
    at the offsets P gives, and the beta deltas.  Returns the words
    scanned by each select1 call."""
    ef = ef_store.x_ef
    if ef.n_values:
        for k in rng.integers(1, ef.n_values + 1, size=calls).tolist():
            h = clock.begin("succinct.EliasFano.select", tag)
            ef.select(k)
            clock.end(h)
        for x in rng.integers(0, ef.universe, size=calls).tolist():
            h = clock.begin("succinct.EliasFano.pred", tag)
            hit = ef.pred(x)
            clock.end(h)
            gate.check(hit is None or hit[1] <= x, f"{tag}: EliasFano.pred({x}) = {hit}")

    rs = rs_store.x_rs
    words = []
    if rs.total_ones:
        for p in rng.integers(0, rs.owner.nbits + 1, size=calls).tolist():
            h = clock.begin("succinct.RankSelectIndex.rank1", tag)
            rs.rank1(p)
            clock.end(h)
        for k in rng.integers(1, rs.total_ones + 1, size=calls).tolist():
            h = clock.begin("succinct.RankSelectIndex.select1", tag)
            pos = rs.select1(k)
            clock.end(h)
            words.append(words_scanned(rs, k, pos))
            gate.check(rs.owner.get(pos) == 1 and rs.rank1(pos) == k - 1, f"{tag}: select1({k}) = {pos}")

    offsets = ef_store.p_ef  # ell - 1 field offsets and a sentinel
    if offsets.n_values > 1:
        fields = ef_store.b_bits
        for i in rng.integers(1, offsets.n_values, size=calls).tolist():
            start = offsets.select(i)
            width = offsets.select(i + 1) - start
            h = clock.begin("succinct.BitVector.read_field", tag)
            fields.read_field(start, width)
            clock.end(h)

    deltas = ef_store.d_beta
    for i in rng.integers(0, deltas.count, size=calls).tolist():
        h = clock.begin("succinct.PackedIntArray.get", tag)
        deltas.get(i)
        clock.end(h)
    return words
