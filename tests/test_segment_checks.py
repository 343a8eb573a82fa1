"""Every message of the settings' segment checks (`check_segments`), each
raised by a PLA that breaks one rule, and which message wins when a PLA
breaks two: the checks run segment pair by segment pair, in the order
each setting lists them, and before any component is encoded."""

import random

import pytest

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, Pla, PointSeq, build_optimal_pla, encode_c, encode_i

ENCODE = {COMPRESSION: encode_c, INDEXING: encode_i}


def base(setting):
    """A built PLA of at least 5 segments, its points and epsilon."""
    rng = random.Random(4)
    values = sorted(rng.sample(range(1, 3000), 400))
    points = PointSeq(values, setting=setting)
    pla = build_optimal_pla(points, 2)
    assert pla.ell >= 5
    return list(pla.segments), points, pla


def refused(setting, segs, mode, epsilon_eff=None):
    """The ValueError message of encoding `segs` over the base points."""
    _, points, pla = base(setting)
    eff = pla.epsilon_eff if epsilon_eff is None else epsilon_eff
    with pytest.raises(ValueError) as info:
        ENCODE[setting](Pla(segs, pla.epsilon, eff, setting), points, mode)
    return str(info.value)


def cut(segs, i, width):
    """Segment i ends so that segment i + 1 starts `width` x-coordinates
    after segment i's start: a valid partition of the positions in
    compression."""
    start = segs[i].first_x + width
    segs[i] = segs[i]._replace(last_x=start - 1)
    segs[i + 1] = segs[i + 1]._replace(first_x=start)


def compression_case(name):
    segs, points, _ = base(COMPRESSION)
    if name == "first":
        segs[0] = segs[0]._replace(first_x=2)
    elif name == "cover":
        cut(segs, 2, 1)
    elif name == "partition":
        segs[2] = segs[2]._replace(last_x=segs[2].last_x - 1)
    elif name == "last":
        segs[-1] = segs[-1]._replace(last_y=points.values[-1] + 1)
    elif name == "partition-before-cover":  # pair 1 breaks the partition, pair 2 the cover
        segs[1] = segs[1]._replace(last_x=segs[1].last_x - 1)
        cut(segs, 2, 1)
    elif name == "cover-and-partition":  # one pair breaks both
        segs[2] = segs[2]._replace(last_x=segs[2].last_x + 5)
        segs[3] = segs[3]._replace(first_x=segs[2].first_x + 1)
    elif name == "first-and-last":
        segs[0] = segs[0]._replace(first_x=0)
        segs[-1] = segs[-1]._replace(last_x=points.n - 1)
    elif name == "last-and-anchor":
        segs[-1] = segs[-1]._replace(last_x=points.n + 1, final_y=segs[-1].final_y + 10**6)
    return segs


def indexing_case(name):
    segs, points, pla = base(INDEXING)
    two_e = 2 * pla.epsilon
    if name == "span":
        segs[2] = segs[2]._replace(first_x=segs[1].first_x + two_e - 1)
    elif name == "cover":
        segs[2] = segs[2]._replace(first_y=segs[1].first_y + two_e - 1)
        segs[1] = segs[1]._replace(last_y=segs[2].first_y - 1)
    elif name == "partition":
        segs[1] = segs[1]._replace(last_y=segs[1].last_y - 1)
    elif name == "ends":
        segs[-1] = segs[-1]._replace(last_x=points.values[-1] - 1)
    elif name == "span-and-cover":  # one pair breaks both
        segs[2] = segs[2]._replace(first_x=segs[1].first_x + 1, first_y=segs[1].first_y + 1)
        segs[1] = segs[1]._replace(last_y=segs[1].first_y)
    elif name == "partition-before-span":  # pair 0 breaks the partition, pair 1 the span
        segs[0] = segs[0]._replace(last_y=segs[0].last_y - 1)
        segs[2] = segs[2]._replace(first_x=segs[1].first_x + 1)
    elif name == "cover-before-ends":
        segs[0] = segs[0]._replace(first_y=2)
        segs[3] = segs[3]._replace(first_y=segs[2].first_y + 1)
        segs[2] = segs[2]._replace(last_y=segs[2].first_y)
    elif name == "ends-and-anchor":
        segs[0] = segs[0]._replace(first_y=0, intercept=segs[0].intercept - 10**6)
    return segs


COMPRESSION_MESSAGES = {
    "first": "first segment must start at position 1",
    "cover": "non-final segments must cover at least 2 positions",
    "partition": "segments must partition the position axis",
    "last": "last segment must end at position n / value u",
    "partition-before-cover": "segments must partition the position axis",
    "cover-and-partition": "non-final segments must cover at least 2 positions",
    "first-and-last": "first segment must start at position 1",
    "last-and-anchor": "last segment must end at position n / value u",
}

INDEXING_MESSAGES = {
    "span": "non-final segments must span at least 2*epsilon keys",
    "cover": "non-final segments must cover at least 2*epsilon points",
    "partition": "segments must partition the position axis",
    "ends": "segments must cover positions 1..n and end at key u",
    "span-and-cover": "non-final segments must span at least 2*epsilon keys",
    "partition-before-span": "segments must partition the position axis",
    "cover-before-ends": "non-final segments must cover at least 2*epsilon points",
    "ends-and-anchor": "segments must cover positions 1..n and end at key u",
}


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("name", sorted(COMPRESSION_MESSAGES))
def test_compression_messages(name, mode):
    assert refused(COMPRESSION, compression_case(name), mode) == COMPRESSION_MESSAGES[name]


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("name", sorted(INDEXING_MESSAGES))
def test_indexing_messages(name, mode):
    assert refused(INDEXING, indexing_case(name), mode) == INDEXING_MESSAGES[name]


@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_epsilon_eff_check_comes_first(setting):
    segs = (compression_case if setting == COMPRESSION else indexing_case)("partition")
    assert "epsilon_eff" in refused(setting, segs, MODE_EF, epsilon_eff=10)


@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_anchor_delta_alone(setting):
    segs, _, _ = base(setting)
    segs[1] = segs[1]._replace(intercept=segs[1].intercept + 10**6)
    assert refused(setting, segs, MODE_EF) == "anchor delta exceeds the recorded effective error"
