"""Byte identity of the serialized containers and the probe counts of
predict, pinned per format version.

For each (setting, mode), one sha256 covers to_bytes() of the container
of every instance in the 200-instance corpus, in corpus order, each
prefixed by its length.  The probe totals sum ProbeCounter.primitives and
search_steps over a seeded sample of predicts on the first 20 instances.
A change of layout bumps FORMAT_VERSION and adds an entry here.  The
sha256 values of an entry, once recorded, are never edited; its probe
totals are re-recorded only when the query algorithm changes, with the
old and new totals listed in CHANGES.md.
"""

import hashlib
import random
import struct

import pytest

from plastore import COMPRESSION, INDEXING, MODE_EF, MODE_RS, ProbeCounter, encode_c, encode_i
from plastore.container import FORMAT_VERSION

GOLDEN = {
    2: {
        "sha256": {
            (COMPRESSION, MODE_EF): "c0821d2ed315936129c87344b9fcce50a828506aae816bab4953d35e449cd09d",
            (COMPRESSION, MODE_RS): "9459466bce26f41d52d773c261c4676583a32e10689fd36ab48695036edec738",
            (INDEXING, MODE_EF): "e3dee7b01db6cba74c387a2fea45c7be29fffd4029d224150997b52e42c238ce",
            (INDEXING, MODE_RS): "29f37b92e4a38de96fbc0b27ca35c428968471e427fc8506246374cfe9536411",
        },
        # (primitives, search_steps)
        "probes": {
            (COMPRESSION, MODE_EF): (11373, 2240),
            (COMPRESSION, MODE_RS): (10133, 0),
            (INDEXING, MODE_EF): (9793, 2272),
            (INDEXING, MODE_RS): (8521, 0),
        },
    },
    3: {
        "sha256": {
            (COMPRESSION, MODE_EF): "5b1c29e6cbd5e9b8a38b4634750a785802641a0391c7e59140f03e7581e8a330",
            (COMPRESSION, MODE_RS): "0fb8320f46481556fba4e5007d83c844138ce4d97d37e580956c8d333fd269ec",
            (INDEXING, MODE_EF): "27881d8f5e20d08fa3656a99f1795c0c3434f3b8b90e2006364b12829fcaf682",
            (INDEXING, MODE_RS): "037d35b0b6b479771d2e17617cc89bb9e91af1632971bf3cca66cc53725eb793",
        },
        # (primitives, search_steps)
        "probes": {
            (COMPRESSION, MODE_EF): (11373, 2240),
            (COMPRESSION, MODE_RS): (10133, 0),
            (INDEXING, MODE_EF): (9793, 2272),
            (INDEXING, MODE_RS): (8521, 0),
        },
    },
}

PROBE_INSTANCES = 20
PREDICTS_PER_INSTANCE = 50
ENCODE = {COMPRESSION: encode_c, INDEXING: encode_i}


def corpus_digest(setting, corpus, mode):
    h = hashlib.sha256()
    for inst in corpus:
        data = ENCODE[setting](inst.pla, inst.points, mode).to_bytes()
        h.update(struct.pack("<Q", len(data)))
        h.update(data)
    return h.hexdigest()


def probe_totals(setting, corpus, mode):
    rng = random.Random(619)
    pc = ProbeCounter()
    for inst in corpus[:PROBE_INSTANCES]:
        store = ENCODE[setting](inst.pla, inst.points, mode)
        values = inst.points.values
        for _ in range(PREDICTS_PER_INSTANCE):
            if setting == COMPRESSION:
                x = rng.randrange(1, inst.points.n + 1)
            else:
                x = rng.randrange(values[0], values[-1] + 1)
            store.predict(x, probes=pc)
    return pc.primitives, pc.search_steps


@pytest.fixture(scope="module")
def golden():
    if FORMAT_VERSION not in GOLDEN:
        pytest.fail(f"no golden entry for format version {FORMAT_VERSION}: record one")
    return GOLDEN[FORMAT_VERSION]


@pytest.mark.parametrize("mode", [MODE_EF, MODE_RS])
@pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
def test_container_bytes(setting, mode, golden, request):
    corpus = request.getfixturevalue(f"corpus_{setting}")
    assert corpus_digest(setting, corpus, mode) == golden["sha256"][setting, mode]


@pytest.mark.parametrize("mode", [MODE_EF, MODE_RS])
@pytest.mark.parametrize("setting", [COMPRESSION, INDEXING])
def test_predict_probes(setting, mode, golden, request):
    corpus = request.getfixturevalue(f"corpus_{setting}")
    assert probe_totals(setting, corpus, mode) == golden["probes"][setting, mode]
