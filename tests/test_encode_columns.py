"""The columns the encoder reads a PLA into (pla.segment_columns): int64
on the benchmark's input shapes, object arrays of Python ints at the
edges of the u64 range; and the writers those columns feed
(EliasFano.encode, RankSelectIndex.from_ones, pack_fields), which take a
list of Python ints, an int64 array or an object array alike, against
the Python references of tests/conftest.py."""

import random
import re
from unittest.mock import patch

import numpy as np
import pytest

from conftest import reference_from_fields, reference_from_ones
from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, PointSeq, build_optimal_pla, container, encode_c, encode_i
from plastore.pla import segment_columns
from plastore.succinct import EliasFano, RankSelectIndex, pack_fields
from test_u64_golden import INPUTS as U64_INPUTS

ENCODE = {COMPRESSION: encode_c, INDEXING: encode_i}


def column_dtypes(points, epsilon, modes):
    """The dtype of the columns each encode of a built PLA of `points` read."""
    seen = []

    def spy(*args):
        columns = segment_columns(*args)
        seen.append(columns.dtype)
        return columns

    pla = build_optimal_pla(points, epsilon)
    with patch.object(container, "segment_columns", spy):
        for mode in modes:
            ENCODE[points.setting](pla, points, mode)
    return seen


@pytest.mark.parametrize("setting, n, gap, epsilon", [(COMPRESSION, 50_000, 20, 4), (INDEXING, 40_000, 100, 16)])
def test_benchmark_shapes_encode_at_int64(setting, n, gap, epsilon):
    # the shapes of the benchmark's compress-dense and index-sparse inputs
    rng = np.random.default_rng(gap)
    points = PointSeq(np.cumsum(rng.geometric(1 / gap, size=n)).tolist(), setting=setting)
    assert column_dtypes(points, epsilon, (MODE_EF, MODE_RS)) == [np.dtype(np.int64)] * 2


@pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
@pytest.mark.parametrize("name", sorted(U64_INPUTS))
def test_u64_inputs_encode_as_objects(setting, name):
    values, epsilon = U64_INPUTS[name]
    modes = (MODE_EF, MODE_RS) if setting == COMPRESSION else (MODE_EF,)  # an indexing rs vector is universe-sized
    assert column_dtypes(PointSeq(values, setting=setting), epsilon, modes) == [np.dtype(object)] * len(modes)


def test_guard_counts_the_scalars():
    segs = [(1, 2, 3, 4, 5, 6)]
    assert segment_columns(segs).dtype == np.int64
    assert segment_columns(segs, (1 << 62) - 1).dtype == np.int64
    assert segment_columns(segs, 1 << 62).dtype == object
    assert segment_columns([(1, 2, 3, 4, 5, -(1 << 62))]).dtype == object
    assert segment_columns([(1, 2, 3, 4, 5, 1 << 63)]).dtype == object
    assert segment_columns(segs).tolist() == [[1], [2], [3], [4], [5], [6]]


def big_values():
    rng = random.Random(63)
    return sorted(rng.randrange(1 << 63, 1 << 64) for _ in range(300))


def test_elias_fano_of_a_list_beyond_int64():
    values = big_values()
    ef = EliasFano.encode(values, 1 << 64)
    lw = ef.low_width
    assert ef.lows.words == reference_from_fields([(v & ((1 << lw) - 1), lw) for v in values])[0]
    highs = ef.high_rs.owner
    assert highs.words == reference_from_ones(highs.nbits, [(v >> lw) + k for k, v in enumerate(values)])
    assert ef.values() == values
    assert EliasFano.encode(np.array(values, dtype=object), 1 << 64).to_bytes_raw() == ef.to_bytes_raw()


def test_elias_fano_refuses_the_first_value_out_of_range():
    for values in ([5, 1 << 64, -1], [5, -1, 1 << 64]):
        for given in (values, np.array(values, dtype=object)):
            with pytest.raises(ValueError, match=f"^value {values[1]} outside"):
                EliasFano.encode(given, 1 << 64)


def test_from_ones_of_lists_and_arrays():
    rng = random.Random(64)
    positions = [rng.randrange(5000) for _ in range(700)]
    words = reference_from_ones(5000, positions)
    for given in (positions, np.array(positions, dtype=np.int64), np.array(positions, dtype=object)):
        assert RankSelectIndex.from_ones(5000, given).owner.words == words
    for bad in ([5, 1 << 63, -1], [5, 1 << 64, 1 << 63]):
        with pytest.raises(ValueError) as want:
            reference_from_ones(5000, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            RankSelectIndex.from_ones(5000, bad)


def test_pack_fields_of_lists_and_arrays():
    values = [0, 5, 1 << 40, 7, (1 << 63) - 1]
    widths = [1, 3, 41, 3, 63]
    want = reference_from_fields(zip(values, widths))
    assert pack_fields(values, widths) == want
    assert pack_fields(np.array(values, dtype=np.int64), widths) == want
    assert pack_fields(np.array(values, dtype=object), widths) == want
    for given in ([0, -3, 1 << 64], np.array([0, -3, 1 << 64], dtype=object)):
        with pytest.raises(ValueError, match="^value -3 does not fit in 3 bits$"):
            pack_fields(given, widths[:3])
