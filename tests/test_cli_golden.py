"""The CLI's output, pinned.

A fixed script of `cli.main` calls runs in-process over both settings,
both modes and epsilon 1, 4 and 16: build, stats (text and JSON),
predict (--x and --batch), verify on a good and on a corrupted
container, bounds, oracle-count, and the error paths (bad magic, a
truncated container, non-increasing input).  One sha256 covers every
call's argv, exit code, stdout and stderr, with the temporary directory
replaced by a fixed name.  A change that must keep the CLI's output
identical leaves this digest as it is.
"""

import contextlib
import hashlib
import io
import random
import struct
import sys

from plastore.cli import main
from plastore.container import ENVELOPE_BYTES, N_COMPONENTS

GOLDEN_SHA256 = "cbf2bb566408fbf4f1910734d4ad09a045255950145f69ad5f4d6b32ac0b0819"

EPSILONS = (1, 4, 16)


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def delta_gamma_offset(data):
    """Byte offset of the last component's payload (delta_gamma): its
    anchors decode to other values, and loading still succeeds."""
    off = ENVELOPE_BYTES
    for _ in range(N_COMPONENTS - 1):
        off += 4 + struct.unpack_from("<I", data, off)[0]
    return off + 4


def script(tmp):
    """Yield (argv, stdin) for every call, in order; writes the input files."""
    rng = random.Random(8)
    values = []
    v = 0
    for i in range(600):
        v += 1 + rng.randrange(1 + (i // 50) % 4 * 9)
        values.append(v)
    seq = tmp / "seq.txt"
    seq.write_text("".join(f"{v}\n" for v in values))
    u = values[-1]
    for setting in ("compression", "indexing"):
        queries = [1, 2, 299, 300, 599, 600] if setting == "compression" else [values[0], values[1], 1000, values[300], u]
        for mode in ("ef", "rs"):
            for eps in EPSILONS:
                pla = tmp / f"{setting}-{mode}-{eps}.pla"
                yield ["build", "--setting", setting, "--epsilon", str(eps), "--mode", mode,
                       "--input", str(seq), "--output", str(pla)], ""
                yield ["stats", str(pla)], ""
                yield ["stats", str(pla), "--report", "json", "--input", str(seq)], ""
                for x in queries[::2]:
                    yield ["predict", str(pla), "--x", str(x)], ""
                yield ["predict", str(pla), "--x", str(u + 1)], ""
                yield ["predict", str(pla), "--batch"], "".join(f"{x}\n" for x in queries) + f"\n{u + 1}\n"
                yield ["verify", str(pla), "--input", str(seq)], ""
                bad = tmp / f"{setting}-{mode}-{eps}-bad.pla"
                data = bytearray(pla.read_bytes())
                data[delta_gamma_offset(data)] ^= 0xFF
                bad.write_bytes(bytes(data))
                yield ["verify", str(bad), "--input", str(seq)], ""
        trunc = tmp / f"{setting}-trunc.pla"
        trunc.write_bytes((tmp / f"{setting}-ef-4.pla").read_bytes()[:60])
        yield ["stats", str(trunc)], ""

    yf, xf = tmp / "y.txt", tmp / "x.txt"
    yf.write_text("2\n4\n")
    xf.write_text("1\n4\n")
    yield ["bounds", "--setting", "compression", "--ell", "2", "--epsilon", "1", "--u", "6", "--n", "6",
           "--y-file", str(yf)], ""
    yield ["bounds", "--setting", "indexing", "--ell", "2", "--epsilon", "1", "--u", "10", "--n", "8",
           "--x-file", str(xf)], ""
    yield ["bounds", "--setting", "indexing", "--ell", "2", "--epsilon", "1", "--u", "10", "--n", "8"], ""
    yield ["bounds", "--setting", "indexing", "--ell", "3", "--epsilon", "4", "--u", "10", "--n", "8"], ""
    yield ["oracle-count", "--setting", "compression", "--ell", "2", "--epsilon", "1", "--u", "6", "--n", "6",
           "--y-file", str(yf)], ""
    yield ["oracle-count", "--setting", "indexing", "--ell", "2", "--epsilon", "1", "--u", "10", "--n", "8",
           "--x-file", str(xf)], ""
    yield ["oracle-count", "--setting", "compression", "--ell", "2", "--epsilon", "1", "--u", "6", "--n", "6",
           "--y-file", str(yf), "--budget", "10"], ""

    junk = tmp / "junk.pla"
    junk.write_bytes(b"JUNKJUNKJUNK" * 10)
    yield ["predict", str(junk), "--x", "1"], ""
    unsorted = tmp / "unsorted.txt"
    unsorted.write_text("1\n5\n4\n9\n")
    yield ["build", "--setting", "compression", "--epsilon", "1", "--input", str(unsorted),
           "--output", str(tmp / "unsorted.pla")], ""


def test_cli_output_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for argv, stdin in script(tmp_path):
        code, stdout, stderr = run(argv, stdin)
        record = "\0".join([" ".join(argv), stdin, str(code), stdout, stderr]) + "\0\0"
        digest.update(record.replace(str(tmp_path), "<tmp>").encode())
    assert digest.hexdigest() == GOLDEN_SHA256
