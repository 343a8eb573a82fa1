"""Byte identity of containers at the edges of the u64 range.

tests/test_golden.py pins a corpus whose values stay far below 2^63;
TestBeyondInt64 only round-trips, so a writer and a reader that agree on
a wrong layout would pass it.  Here one sha256 covers to_bytes() of the
container of every input below, in order, each prefixed by its length:
values up to 2^64 - 1 (a 64-bit low part in an Elias-Fano sequence of
one value), values of 2^63 and more, B fields 64 bits wide, zig-zag
delta codes of 2^63 and more (radix 2*epsilon_eff + 1 above 2^64, so one
delta to a 64- or 65-bit group), B field offsets over fields of ~56 bits,
and deltas in radix 3 (epsilon_eff 1), 40 to a 64-bit group, over more
than one group.  Both settings in ef mode; rs mode in compression only,
since an indexing rs bitvector is universe-sized and the format limits it
to 2^32 bits.  The digests are keyed by format version; each is recorded
once and never edited.  Version 2 covered every input but `radix-3`.
"""

import hashlib
import random
import struct

import pytest

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, PointSeq, build_optimal_pla, encode_c, encode_i
from plastore.container import FORMAT_VERSION
from plastore.store_compression import CompressedPlaC
from plastore.store_indexing import CompressedPlaI

TOP = (1 << 64) - 1


def _spread():
    rng = random.Random(5)
    return sorted(rng.sample(range(1 << 63, TOP), 240)) + [TOP]


def _radix_3():
    """700 values above 2^63 in runs of five gaps of 3 + 1000*j (j < 5),
    each plus 0 or 1, then 2^64 - 1: at epsilon 1 both settings verify
    epsilon_eff 1 over more than 40 segments."""
    rng = random.Random(1)
    v = (1 << 63) + rng.randrange(1 << 40)
    values = []
    for i in range(700):
        v += 3 + (i // 5) % 5 * 1000 + rng.randrange(2)
        values.append(v)
    return values + [TOP]


# name: (values, epsilon)
INPUTS = {
    "top": ([TOP - 2, TOP - 1, TOP], 4),
    "jump": ([1, 2, 3, 5, 8, (1 << 63) + 20, TOP - 1, TOP], 1),
    "straddle": (list(range(1, 41)) + [(1 << 63) + 1000 * i + (i * i) % 7 for i in range(40)] + [TOP], 4),
    "spread": (_spread(), 1),
    "wide-deltas": ([37471, 222528, 609437, 636278, 714339, 18446744073708648436, 18446744073709219463],
                    13835058055282163712),
    "radix-3": (_radix_3(), 1),
}

SHA256 = {
    2: {
        (COMPRESSION, MODE_EF): "6d3910779956b221f90a362c8cd6fdd8a51fadc837eb353c2a4b01e483a37dcc",
        (COMPRESSION, MODE_RS): "1b55418069ba710533788dfa938357de2aec6a8583b2db6e9062555656b8fa97",
        (INDEXING, MODE_EF): "9d8170ecd9f236b2a92c7278b033ae74d653c38f5f1daa5019be2812eb45dc96",
    },
    3: {
        (COMPRESSION, MODE_EF): "34a982ff374ea1804e9b352dd7a93b502ea8540bac42e89e0e05a5ee90aaf4d2",
        (COMPRESSION, MODE_RS): "bdb7961a3a872c5be74473417e9276f78aedd612fcebf0bae3f2b3238b998ec8",
        (INDEXING, MODE_EF): "81b6147ee7077d93c10a98c4539c59a1357f248902d5e2f892ae2cec0a6ff39e",
    },
}
CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}


@pytest.mark.parametrize("setting, mode", sorted(SHA256[FORMAT_VERSION]))
def test_u64_extreme_container_bytes(setting, mode):
    encode, cls = CODECS[setting]
    h = hashlib.sha256()
    for values, epsilon in INPUTS.values():
        points = PointSeq(values, setting=setting)
        pla = build_optimal_pla(points, epsilon)
        data = encode(pla, points, mode).to_bytes()
        assert cls.from_bytes(data).decode_all_segments() == pla.segments
        h.update(struct.pack("<Q", len(data)))
        h.update(data)
    assert h.hexdigest() == SHA256[FORMAT_VERSION][setting, mode]
