"""The whole pipeline against the plain references, on inputs a shrinking
search draws: build -> to_bytes -> from_bytes in both settings and both
modes, then every segment decoded and predict at every point.  The
built epsilon_eff must equal verify_error and the Python-integer reference,
so that the int64 kernel and its exact path are checked on mixed inputs.

Gaps come from three scales (1-5, 1-1000, 1-2^62, plus up to two single
huge gaps), and half the sequences end near 2^64 - 1, so that ef reaches
universes near 2^64; epsilon runs up to 2^40, far above n.  rs mode runs in indexing only while its
universe-sized bitvector stays small (u <= 2^20); in compression its
bitvector has n - 1 bits, so it always runs.
"""

from itertools import accumulate

from hypothesis import given, settings, strategies as st

from plastore import (
    COMPRESSION,
    INDEXING,
    MODE_EF,
    MODE_RS,
    CompressedPlaC,
    CompressedPlaI,
    PointSeq,
    build_optimal_pla,
    encode_c,
    encode_i,
    predict_reference,
    verify_error,
)

from conftest import exact_max_error

U64_MAX = (1 << 64) - 1
CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}
RS_MAX_UNIVERSE = 1 << 20


@st.composite
def sequences(draw):
    """Strictly increasing values in [1, 2^64 - 1], at least one: they
    start near 1 or end near 2^64 - 1."""
    top = draw(st.sampled_from((5, 1000, 1 << 62)))
    n = draw(st.integers(0, 80))
    gaps = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    for at, size in draw(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 1 << 62)), max_size=2)):
        if at < n:
            gaps[at] = size
    slack = draw(st.integers(0, 1000))
    first = 1 + slack if draw(st.booleans()) else max(1, U64_MAX - sum(gaps) - slack)
    return [v for v in accumulate(gaps, initial=first) if v <= U64_MAX]


@given(values=sequences(), epsilon=st.integers(1, 8) | st.integers(1, 1 << 40))
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_pipeline_matches_references(values, epsilon):
    for setting, (encode, cls) in CODECS.items():
        points = PointSeq(values, setting=setting)
        pla = build_optimal_pla(points, epsilon)
        assert verify_error(pla, points) == pla.epsilon_eff == exact_max_error(pla, points)
        xs = points.plane_points()[0]
        for mode in (MODE_EF, MODE_RS):
            if mode == MODE_RS and setting == INDEXING and values[-1] > RS_MAX_UNIVERSE:
                continue
            store = cls.from_bytes(encode(pla, points, mode).to_bytes())
            assert store.decode_all_segments() == pla.segments, (setting, mode)
            for x in xs:
                assert store.predict(x) == predict_reference(pla, x), (setting, mode, x)
