"""The numpy Elias-Fano kernel against the exact path (select_run and
Python integers): whole-sequence decoding, and the B offsets that load
rebuilds from the value axis.  Each example is decoded twice, with the
size selection forced to each side by patching its crossover."""

import random
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, PointSeq, build_optimal_pla, succinct
from plastore.store_compression import CompressedPlaC, encode_c
from plastore.store_indexing import CompressedPlaI, encode_i
from plastore.succinct import EliasFano, bit_lengths, pack_fields, unpack_fields

ALWAYS, NEVER = 1, 1 << 40  # crossovers that force the kernel, or the exact path
CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}
GUARD = succinct._INT64_UNIVERSE
P53 = 1 << 53

# (lowest value, largest gap) of the drawn sequences; near 2^53 the gaps
# straddle it too, where float64 can no longer tell neighbours apart
SCALES = {
    "dense": (0, 2),  # low width 0 once n passes ~130
    "wide": (0, 1 << 47),  # low width >= 40
    "2^53": (P53 - 4096, P53 + 8),
    "guard": (GUARD - (1 << 50), 1 << 40),  # around the largest universe the kernel decodes in int64
    "u64": ((1 << 64) - (1 << 62), 1 << 50),  # decoded in object dtype
}


def draw(rng, n, scale, strict=False):
    """n non-decreasing values (strictly increasing if `strict`) from the
    scale's lowest value on; a 2^53 gap now and then on that scale."""
    low, gap = SCALES[scale]
    values = []
    v = low + rng.randrange(64)
    for _ in range(n):
        if scale == "2^53" and rng.random() < 0.05:
            v += rng.choice((P53 - 1, P53, P53 + 1, 2 * P53 - 1))
        v += rng.randrange(gap) + strict
        values.append(v)
    return values


def test_bit_lengths_and_unpack_fields():
    # around every power of two: float64 rounds 2^k - 1 up to 2^k for k > 53
    xs = [0] + [v for k in range(1, 63) for v in ((1 << k) - 1, 1 << k, (1 << k) + 1)] + [(1 << 63) - 1]
    assert bit_lengths(np.array(xs, dtype=np.int64)).tolist() == [x.bit_length() for x in xs]
    xs += [1 << 63, (1 << 63) + 1, (1 << 64) - 1025, (1 << 64) - 1]  # uint64 up to 2^64 - 1
    assert bit_lengths(np.array(xs, dtype=np.uint64)).tolist() == [x.bit_length() for x in xs]
    assert bit_lengths(np.array(xs, dtype=object)).tolist() == [x.bit_length() for x in xs]
    rng = random.Random(11)
    for width in range(64):
        for count in (1, 2, 63, 64, 65, 129):
            fields = [rng.randrange(1 << width) for _ in range(count)]
            words, _ = pack_fields(fields, width)
            assert unpack_fields(words, count, width).tolist() == fields, (width, count)


def both_paths(read):
    """read() with the kernel forced on, then off."""
    out = []
    for kernel_min in (ALWAYS, NEVER):
        with patch.object(succinct, "_NUMPY_MIN", kernel_min):
            out.append(read())
    return out


@given(n=st.integers(1, 2000), scale=st.sampled_from(sorted(SCALES)), seed=st.integers(0, 1 << 32))
@settings(max_examples=300)
def test_values_equal_on_both_paths(n, scale, seed):
    values = draw(random.Random(seed), n, scale)
    universe = values[-1] + 1 + seed % 3
    raw = EliasFano.encode(values, universe).to_bytes_raw()
    ef = EliasFano.from_bytes_raw(raw, 0, n, universe)[0]
    kernel, exact = both_paths(ef.values)
    assert kernel == exact == values
    with patch.object(succinct, "_NUMPY_MIN", ALWAYS):
        whole = ef.values_array()
    assert whole.tolist() == values
    assert whole.dtype == (object if universe > GUARD else np.int64)


@given(n=st.integers(1, 600), scale=st.sampled_from(sorted(SCALES)), seed=st.integers(0, 1 << 32),
       setting=st.sampled_from((COMPRESSION, INDEXING)), mode=st.sampled_from((MODE_EF, MODE_RS)))
@settings(max_examples=200)
def test_loaded_container_equal_on_both_paths(n, scale, seed, setting, mode):
    if setting == INDEXING and mode == MODE_RS:
        scale = "dense"  # its universe-sized bitvector must stay below 2^32 bits
    values = draw(random.Random(seed), n, scale, strict=True)
    points = PointSeq(values, setting=setting)
    pla = build_optimal_pla(points, 1 + seed % 3)
    encode, cls = CODECS[setting]
    data = encode(pla, points, mode).to_bytes()
    kernel, exact = both_paths(lambda: cls.from_bytes(data))
    value_seq = kernel.y_ef if setting == COMPRESSION else kernel.x
    took_kernel = both_paths(lambda: kernel.value_axis.whole is not None and kernel.value_axis.whole() is not None)
    assert took_kernel == [isinstance(value_seq, EliasFano), False]
    assert kernel.p_ef.total == exact.p_ef.total == kernel.b_bits.nbits
    assert kernel.decode_all_segments() == exact.decode_all_segments() == pla.segments
