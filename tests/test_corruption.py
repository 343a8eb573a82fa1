"""Corrupted containers: seeded truncations and bit flips of one
3000-key container per setting and mode, forged header fields, and
fuzzed mutations of small containers.  Loading is refused with an
error that the CLI reports as one `error:` line (FormatError is a
ValueError), never with a struct.error traceback."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, FormatError, PointSeq, build_optimal_pla
from plastore.container import ENVELOPE_FMT
from plastore.store_compression import CompressedPlaC, encode_c
from plastore.store_indexing import CompressedPlaI, encode_i
from test_cli import run_cli

CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}
MUTATIONS = 400  # per container: every 4th truncates, the others flip one bit
U_BYTE = 14  # first byte of u in the envelope (after magic, version, mode and n)
HEADER_FIELDS = ("n", "u", "ell", "epsilon", "epsilon_eff", "w_delta")  # the envelope's six u64


def container(setting, mode, n=3000, epsilon=4):
    rng = random.Random(5)
    points = PointSeq(sorted(rng.sample(range(1, 20 * n), n)), setting=setting)
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
    # promises is refused at load, not left to a scan that runs off the
    # end; a flipped P sample or coordinate that forges a B field offset
    # past the end of B is refused at decode
    cls = CODECS[setting][1]
    data = container(setting, mode)
    rng = random.Random(f"x-{setting}-{mode}")
    for _ in range(MUTATIONS):
        bad = bytearray(data)
        bit = rng.randrange(8 * len(bad))
        bad[bit >> 3] ^= 1 << (bit & 7)
        try:
            cls.from_bytes(bytes(bad)).decode_all_segments()
        except FormatError:
            pass


def forge(data, name, value):
    fields = list(struct.unpack_from(ENVELOPE_FMT, data))
    fields[3 + HEADER_FIELDS.index(name)] = value
    return struct.pack(ENVELOPE_FMT, *fields) + data[struct.calcsize(ENVELOPE_FMT):]


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
def test_inconsistent_header_refused(setting, mode):
    # each forged field breaks one of 1 <= ell <= n <= u, epsilon >= 1,
    # w_delta = bit_length(2 * epsilon_eff)
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
EDITS = st.lists(st.tuples(st.sampled_from(("flip", "set", "delete", "insert")),
                           st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4)


@pytest.mark.parametrize("mode", (MODE_EF, MODE_RS))
@pytest.mark.parametrize("setting", (COMPRESSION, INDEXING))
@given(edits=EDITS)
@settings(max_examples=600, derandomize=True, deadline=None)
def test_fuzzed_containers_raise_only_format_error(setting, mode, edits):
    try:
        CODECS[setting][1].from_bytes(mutate(SMALL[setting, mode], edits)).decode_all_segments()
    except FormatError:
        pass
