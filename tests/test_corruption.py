"""Corrupted containers: seeded truncations and bit flips of one
3000-key container per setting and mode, flipped Elias-Fano and rs select
samples, flipped mixed-radix delta groups, forged rank block counts,
padded component payloads, forged header fields, and fuzzed mutations of
small containers.  Loading, or reading what a flip forged, is refused
with an error that the CLI reports as one `error:` line (FormatError is a
ValueError), never with a struct.error traceback."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, FormatError, Pla, PointSeq, build_optimal_pla
from plastore.container import ENVELOPE_BYTES, ENVELOPE_FMT, N_COMPONENTS, pack_components, unpack_components, zigzag
from plastore.store_compression import CompressedPlaC, encode_c
from plastore.store_indexing import CompressedPlaI, encode_i
from plastore.succinct import SELECT_SAMPLE_RATE
from conftest import mixed_radix_groups
from test_cli import run_cli

CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}
MUTATIONS = 400  # per container: every 4th truncates, the others flip one bit
U_BYTE = 14  # first byte of u in the envelope (after magic, version, mode and n)
HEADER_FIELDS = ("n", "u", "ell", "epsilon", "epsilon_eff", "w_delta")  # the envelope's six u64


def sequence(setting, n=3000):
    rng = random.Random(5)
    return PointSeq(sorted(rng.sample(range(1, 20 * n), n)), setting=setting)


def container(setting, mode, n=3000, epsilon=4):
    points = sequence(setting, n)
    encode, _ = CODECS[setting]
    return encode(build_optimal_pla(points, epsilon), points, mode).to_bytes()


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_mutated_containers_raise_only_reported_errors(setting, mode):
    cls = CODECS[setting][1]
    data = container(setting, mode)
    rng = random.Random(f"{setting}-{mode}")
    for m in range(MUTATIONS):
        bad = bytearray(data)
        if m % 4 == 0:
            del bad[rng.randrange(len(bad)):]
            with pytest.raises(FormatError):
                cls.from_bytes(bytes(bad))
            continue
        bit = rng.randrange(8 * len(bad))
        bad[bit >> 3] ^= 1 << (bit & 7)
        try:
            cls.from_bytes(bytes(bad))
        except (ValueError, IndexError):  # what cli.main reports
            pass


@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_stats_on_a_flipped_universe_is_one_error_line(setting, tmp_path):
    # u grows by 2^40: the value axis's Elias-Fano lows outgrow the payload
    bad = bytearray(container(setting, MODE_EF))
    bad[U_BYTE + 5] ^= 1
    path = tmp_path / "bad.pla"
    path.write_bytes(bytes(bad))
    code, stdout, stderr = run_cli(["stats", str(path)])
    assert code == 1 and stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_flipped_bits_load_or_raise_format_error(setting, mode):
    # a directory or bitvector that holds fewer ones than the header
    # promises, or a flipped rank block count, is refused at load, not
    # left to a scan that runs off the end; a delta group lifted past the
    # power of the radix its digits can reach is refused at decode and
    # predict.  Only keys the loaded container covers are queried, so any
    # other error is a fault.
    cls = CODECS[setting][1]
    data = container(setting, mode)
    keys = sequence(setting).plane_points()[0][::29]
    rng = random.Random(f"x-{setting}-{mode}")
    for _ in range(MUTATIONS):
        bad = bytearray(data)
        bit = rng.randrange(8 * len(bad))
        bad[bit >> 3] ^= 1 << (bit & 7)
        try:
            store = cls.from_bytes(bytes(bad))
            store.decode_all_segments()
            first, last = store.x_axis.first(1), store.x_axis.end
            for x in keys:
                if first <= x <= last:
                    store.predict(x)
        except FormatError:
            pass


def test_flipped_elias_fano_select_sample_refused():
    # every stored select sample of Y's high bits (ell > 1024, so two are
    # stored, at the end of Y's payload) is checked against the high bits
    data = container(COMPRESSION, MODE_EF, epsilon=1)
    store = CompressedPlaC.from_bytes(data)
    assert store.ell > 2 * SELECT_SAMPLE_RATE
    (x_len,) = struct.unpack_from("<I", data, ENVELOPE_BYTES)
    (y_len,) = struct.unpack_from("<I", data, ENVELOPE_BYTES + 4 + x_len)
    y_end = ENVELOPE_BYTES + 8 + x_len + y_len
    stored = 4 * (len(store.y_ef.high_rs.samples) - 1)
    assert stored == 8 and data[y_end - stored:y_end] == struct.pack("<2I", *store.y_ef.high_rs.samples[1:])
    for bit in range(8 * (y_end - stored), 8 * y_end):
        bad = bytearray(data)
        bad[bit >> 3] ^= 1 << (bit & 7)
        with pytest.raises(FormatError, match="select samples"):
            CompressedPlaC.from_bytes(bytes(bad))


def test_rs_rank_outside_the_segments_is_format_error():
    # a forged middle rank block count of indexing X, which would rank the
    # key that opens its block past the last segment, or before the first
    # although a one-bit precedes it, is refused at load
    data = container(INDEXING, MODE_RS, n=300)
    x = CompressedPlaI.from_bytes(data).x
    b = len(x.block_counts) - 2
    assert x.block_counts[b] >= 1
    at = ENVELOPE_BYTES + 8 + 8 * len(x.owner.words) + 4 * b  # after X's two length prefixes and its words
    for forged in (1 << 20, 0):
        with pytest.raises(FormatError, match=f"rank block count {b} is {forged}"):
            CompressedPlaI.from_bytes(data[:at] + struct.pack("<I", forged) + data[at + 4:])


def test_every_flipped_rs_block_count_refused():
    # each bit of every stored block count of indexing X (after X's two
    # length prefixes and its words) is refused at load
    data = container(INDEXING, MODE_RS, n=300)
    x = CompressedPlaI.from_bytes(data).x
    start = ENVELOPE_BYTES + 8 + 8 * len(x.owner.words)
    assert data[start:start + 4 * len(x.block_counts)] == struct.pack(f"<{len(x.block_counts)}I", *x.block_counts)
    for bit in range(8 * start, 8 * (start + 4 * len(x.block_counts))):
        bad = bytearray(data)
        bad[bit >> 3] ^= 1 << (bit & 7)
        with pytest.raises(FormatError, match="rank block count"):
            CompressedPlaI.from_bytes(bytes(bad))


@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_flipped_rs_select_sample_refused(setting):
    # every stored select sample of rs X (at the end of X's payload) must
    # be a one-bit that the stored block counts rank 512*j
    data = container(setting, MODE_RS, n=8000, epsilon=1)
    x = CODECS[setting][1].from_bytes(data).x
    (x_len,) = struct.unpack_from("<I", data, ENVELOPE_BYTES)
    x_end = ENVELOPE_BYTES + 4 + x_len
    stored = 4 * (len(x.samples) - 1)
    assert stored and data[x_end - stored:x_end] == struct.pack(f"<{len(x.samples) - 1}I", *x.samples[1:])
    for bit in range(8 * (x_end - stored), 8 * x_end):
        bad = bytearray(data)
        bad[bit >> 3] ^= 1 << (bit & 7)
        with pytest.raises(FormatError, match="select sample"):
            CODECS[setting][1].from_bytes(bytes(bad))


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_flipped_delta_group_refused(setting, mode):
    # every bit of delta_gamma (the last payload), whose groups all sit at
    # the top of their range: every gamma is epsilon_eff above its point,
    # so each digit is radix - 1 and each group radix^digits - 1, which
    # 2^width exceeds.  Load reads no group, so every flip loads; a flip
    # that lifts a group to radix^digits or more is refused by decode and
    # by predict in that group, and any other flip decodes or raises only
    # FormatError
    cls = CODECS[setting][1]
    points = sequence(setting, 300)
    built = build_optimal_pla(points, 1)
    eff = built.epsilon_eff
    pla = Pla([s._replace(final_y=s.last_y + eff) for s in built.segments], built.epsilon, eff, setting)
    data = CODECS[setting][0](pla, points, mode).to_bytes()
    k, groups = mixed_radix_groups([zigzag(s.final_y - s.last_y) for s in pla.segments], 2 * eff + 1)
    assert len(groups) >= 2 and all(2 ** width > limit for _, width, limit in groups)
    off = ENVELOPE_BYTES
    for _ in range(N_COMPONENTS - 1):
        off += 4 + struct.unpack_from("<I", data, off)[0]
    assert 8 * (len(data) - off - 4) == -(-sum(w for _, w, _ in groups) // 64) * 64
    refused = 0
    for bit in range(8 * (off + 4), 8 * len(data)):
        bad = bytearray(data)
        bad[bit >> 3] ^= 1 << (bit & 7)
        store = cls.from_bytes(bytes(bad))
        at = bit - 8 * (off + 4)
        q, start = 0, 0
        while q < len(groups) and at >= start + groups[q][1]:
            start += groups[q][1]
            q += 1
        if q < len(groups) and groups[q][0] ^ (1 << (at - start)) >= groups[q][2]:
            refused += 1
            seg = pla.segments[q * k]
            for read in (store.decode_all_segments, lambda: store.predict(seg.first_x),
                         lambda: store.decode_segment(min(store.ell, q * k + k))):
                with pytest.raises(FormatError, match="mixed-radix group"):
                    read()
            continue
        try:
            store.decode_all_segments()
        except FormatError:
            pass
    assert refused >= len(groups)


@pytest.mark.parametrize("component", range(N_COMPONENTS))
@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_padded_component_refused(setting, mode, component):
    # eight zero bytes after a component's payload, its length raised to
    # match: every other check passes, so only the end offset can tell
    data = container(setting, mode, n=300)
    parts = unpack_components(data, ENVELOPE_BYTES, N_COMPONENTS)
    parts[component] = bytes(parts[component]) + bytes(8)  # the payloads are views into `data`
    with pytest.raises(FormatError, match="payload"):
        CODECS[setting][1].from_bytes(data[:ENVELOPE_BYTES] + pack_components(parts))


def forge(data, name, value):
    fields = list(struct.unpack_from(ENVELOPE_FMT, data))
    fields[3 + HEADER_FIELDS.index(name)] = value
    return struct.pack(ENVELOPE_FMT, *fields) + data[struct.calcsize(ENVELOPE_FMT):]


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_inconsistent_header_refused(setting, mode):
    # each forgery breaks one of 1 <= ell <= n <= u, epsilon >= 1,
    # w_delta = bit_length(2 * epsilon_eff), epsilon_eff <= epsilon + 3
    cls = CODECS[setting][1]
    data = container(setting, mode, n=300)
    header = dict(zip(HEADER_FIELDS, struct.unpack_from(ENVELOPE_FMT, data)[3:]))
    n, u, ell, w_delta = header["n"], header["u"], header["ell"], header["w_delta"]
    assert 2 <= ell < n < u and header["epsilon"] == 4
    forged = (("ell", 0), ("ell", n + 1), ("n", ell - 1), ("n", u + 1), ("u", n - 1), ("epsilon", 0),
              ("epsilon_eff", 1 << w_delta), ("w_delta", w_delta + 1), ("w_delta", 0))
    for name, value in forged:
        with pytest.raises(FormatError, match="inconsistent header"):
            cls.from_bytes(forge(data, name, value))
    epsilon_eff = header["epsilon"] + 4  # with the w_delta it needs
    with pytest.raises(FormatError, match="inconsistent header"):
        cls.from_bytes(forge(forge(data, "epsilon_eff", epsilon_eff), "w_delta", (2 * epsilon_eff).bit_length()))


def mutate(data, edits):
    """data after each (kind, where, value) edit: flip bit `value % 8`,
    overwrite a byte with `value`, delete `value % 9` bytes, or insert
    `value % 9` bytes of `value`, at byte `where % len`."""
    bad = bytearray(data)
    for kind, where, value in edits:
        at = where % max(1, len(bad))
        if kind == "flip" and bad:
            bad[at] ^= 1 << (value % 8)
        elif kind == "set" and bad:
            bad[at] = value
        elif kind == "delete":
            del bad[at:at + value % 9]
        elif kind == "insert":
            bad[at:at] = bytes([value]) * (value % 9)
    return bytes(bad)


SMALL = {(setting, mode): container(setting, mode, n=120, epsilon=2)
         for setting in (COMPRESSION, INDEXING) for mode in (MODE_EF, MODE_RS)}
SMALL_KEYS = {setting: sequence(setting, 120).plane_points()[0] for setting in (COMPRESSION, INDEXING)}
EDITS = st.lists(st.tuples(st.sampled_from(("flip", "set", "delete", "insert")),
                           st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4)


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
@given(edits=EDITS)
@settings(max_examples=600, derandomize=True, deadline=None)
def test_fuzzed_containers_raise_only_format_error(setting, mode, edits):
    # predict runs at every key the loaded container covers: flipped lows
    # can leave an Elias-Fano sequence unsorted, and the ef search must
    # still return a segment of the container
    try:
        store = CODECS[setting][1].from_bytes(mutate(SMALL[setting, mode], edits))
        store.decode_all_segments()
        first, last = store.x_axis.first(1), store.x_axis.end
        for x in SMALL_KEYS[setting]:
            if first <= x <= last:
                store.predict(x)
    except FormatError:
        pass
