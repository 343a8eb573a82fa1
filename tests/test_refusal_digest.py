"""One sha256 over the outcome of encoding ~2000 malformed PLAs, so that a
rewrite of the encoder keeps every refusal and every accepted container.

Each case sets one field of one segment of a built PLA to 0, -1, +-2^63,
2^64, 2^70, one off either way, or its negation, with epsilon_eff kept,
0 or 2^62, in both settings and both modes.  Its outcome is the
container bytes, or the exception's type and message; every accepted PLA
must also decode to its own segments.  The digest was recorded before
the column encoder replaced the per-field lists, and is never edited.
"""

import hashlib
import random

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, Pla, PointSeq, build_optimal_pla, encode_c, encode_i
from plastore.store_compression import CompressedPlaC
from plastore.store_indexing import CompressedPlaI

CODECS = {COMPRESSION: (encode_c, CompressedPlaC), INDEXING: (encode_i, CompressedPlaI)}
MUTATIONS = (
    lambda v: 0,
    lambda v: -1,
    lambda v: 1 << 63,
    lambda v: -(1 << 63),
    lambda v: 1 << 64,
    lambda v: 1 << 70,
    lambda v: v + 1,
    lambda v: v - 1,
    lambda v: -v,
)
CASES_PER_BASE = 170
SHA256 = "0dc6706fe840e09bdcf03b9a7652499c8cb265cb33e4d664487b407ae9f2522b"


def bases(setting):
    """Three built PLAs of the setting, of 2 to 75 segments, and their points."""
    rng = random.Random(17)
    out = []
    for n, hi, epsilon in ((40, 200, 1), (300, 2000, 2), (120, 100000, 4)):
        points = PointSeq(sorted(rng.sample(range(1, hi), n)), setting=setting)
        out.append((build_optimal_pla(points, epsilon), points))
    return out


def outcomes():
    """(digest, count of accepted PLAs) over every case, in a fixed order."""
    rng = random.Random(22)
    h = hashlib.sha256()
    accepted = 0
    for setting in (COMPRESSION, INDEXING):
        encode, cls = CODECS[setting]
        for pla, points in bases(setting):
            for mode in (MODE_EF, MODE_RS):
                for _ in range(CASES_PER_BASE):
                    segs = list(pla.segments)
                    i, k = rng.randrange(len(segs)), rng.randrange(6)
                    fields = list(segs[i])
                    fields[k] = rng.choice(MUTATIONS)(fields[k])
                    segs[i] = type(segs[i])(*fields)
                    eff = rng.choice((pla.epsilon_eff, 0, 1 << 62))
                    try:
                        data = encode(Pla(segs, pla.epsilon, eff, setting), points, mode).to_bytes()
                    except Exception as exc:  # the type and message are the outcome
                        h.update(f"{type(exc).__name__}: {exc}\n".encode())
                        continue
                    assert cls.from_bytes(data).decode_all_segments() == segs
                    accepted += 1
                    h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), accepted


def test_refusal_digest():
    digest, accepted = outcomes()
    assert accepted > 0
    assert digest == SHA256
