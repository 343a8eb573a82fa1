"""Corrupted containers: seeded truncations and bit flips of one
3000-key container per setting and mode.  Loading is refused with an
error that the CLI reports as one `error:` line (FormatError is a
ValueError), never with a struct.error traceback."""

import random

import pytest

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, FormatError, PointSeq, build_optimal_pla
from plastore.store_compression import CompressedPlaC, encode_c
from plastore.store_indexing import CompressedPlaI, encode_i
from test_cli import run_cli

CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}
MUTATIONS = 400  # per container: every 4th truncates, the others flip one bit
U_BYTE = 14  # first byte of u in the envelope (after magic, version, mode and n)


def container(setting, mode):
    rng = random.Random(5)
    points = PointSeq(sorted(rng.sample(range(1, 60000), 3000)), setting=setting)
    encode, _ = CODECS[setting]
    return encode(build_optimal_pla(points, 4), points, mode).to_bytes()


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
    # promises is refused at load, not left to a scan that runs off the end
    cls = CODECS[setting][1]
    data = container(setting, mode)
    rng = random.Random(f"x-{setting}-{mode}")
    for _ in range(MUTATIONS):
        bad = bytearray(data)
        bit = rng.randrange(8 * len(bad))
        bad[bit >> 3] ^= 1 << (bit & 7)
        try:
            cls.from_bytes(bytes(bad))
        except FormatError:
            pass
