import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import plastore
from plastore.cli import main

# the subprocess imports the same plastore sources as the tests
SRC = str(Path(plastore.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "plastore.cli", *args],
        capture_output=True, text=True, input=stdin, env=ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def seq_file(tmp_path):
    path = tmp_path / "seq.txt"
    values = []
    v = 0
    for i in range(1, 400):
        v += 1 + (i * i) % 7
        values.append(v)
    path.write_text("".join(f"{v}\n" for v in values))
    return path, values


class TestBuildPredictVerify:
    def test_build_collinear(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("1\n2\n3\n")
        out = tmp_path / "out.pla"
        code, stdout, _ = run_cli(["build", "--setting", "compression", "--epsilon", "1",
                                   "--input", str(inp), "--output", str(out)])
        assert code == 0
        assert "ell=1" in stdout

    def test_build_deterministic(self, seq_file, tmp_path):
        path, _ = seq_file
        outs = []
        for name in ("a.pla", "b.pla"):
            out = tmp_path / name
            code, _, _ = run_cli(["build", "--setting", "indexing", "--epsilon", "2",
                                  "--input", str(path), "--output", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_predict_single_and_batch(self, seq_file, tmp_path):
        path, values = seq_file
        out = tmp_path / "c.pla"
        run_cli(["build", "--setting", "compression", "--epsilon", "2",
                 "--input", str(path), "--output", str(out)])
        code, stdout, _ = run_cli(["predict", str(out), "--x", "1"])
        assert code == 0
        val, seg = stdout.split()
        assert seg == "1" and abs(int(val) - values[0]) <= 5
        queries = "".join(f"{x}\n" for x in range(1, len(values) + 1))
        code, stdout, _ = run_cli(["predict", str(out), "--batch"], stdin=queries)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == len(values)
        for line, truth in zip(lines, values):
            x, pred, seg = map(int, line.split())
            assert abs(pred - truth) <= 5

    def test_verify_ok_and_corrupted(self, seq_file, tmp_path):
        path, _ = seq_file
        out = tmp_path / "d.pla"
        run_cli(["build", "--setting", "compression", "--epsilon", "1",
                 "--input", str(path), "--output", str(out)])
        code, stdout, _ = run_cli(["verify", str(out), "--input", str(path)])
        assert code == 0 and stdout.startswith("OK")
        # corrupt one byte in the delta arrays (late in the file)
        data = bytearray(out.read_bytes())
        data[-5] ^= 0xFF
        bad = tmp_path / "bad.pla"
        bad.write_bytes(bytes(data))
        code, stdout, _ = run_cli(["verify", str(bad), "--input", str(path)])
        assert code == 1 and "violation" in stdout

    def test_u64le_input(self, tmp_path):
        vals = [3, 7, 20, 21, 22, 50]
        raw = b"".join(struct.pack("<Q", v) for v in vals)
        inp = tmp_path / "in.bin"
        inp.write_bytes(raw)
        out = tmp_path / "e.pla"
        code, stdout, _ = run_cli(["build", "--setting", "compression", "--epsilon", "1",
                                   "--format", "u64le", "--input", str(inp), "--output", str(out)])
        assert code == 0

    @pytest.mark.parametrize("setting", ["compression", "indexing"])
    def test_u64le_above_2_63_round_trip(self, tmp_path, setting):
        vals = [2**63 + 1000 * i + (i * i) % 7 for i in range(100)]
        inp = tmp_path / "big.bin"
        inp.write_bytes(b"".join(struct.pack("<Q", v) for v in vals))
        out = tmp_path / "big.pla"
        steps = [
            ["build", "--setting", setting, "--epsilon", "4", "--format", "u64le",
             "--input", str(inp), "--output", str(out)],
            ["verify", str(out), "--format", "u64le", "--input", str(inp)],
            ["predict", str(out), "--x", str(vals[40] if setting == "indexing" else 41)],
        ]
        for args in steps:
            code, stdout, stderr = run_cli(args)
            assert code == 0 and stderr == "", (args[0], stderr)
        assert stdout.split()[1] == "1"

    @pytest.mark.parametrize("setting", ["compression", "indexing"])
    @pytest.mark.parametrize("last, epsilon", [(2**70, 1), (1000, 2**64)])
    def test_header_value_above_u64_is_one_error_line(self, tmp_path, setting, last, epsilon):
        inp = tmp_path / "in.txt"
        inp.write_text(f"1\n5\n9\n{last}\n")
        out = tmp_path / "h.pla"
        code, stdout, stderr = run_cli(["build", "--setting", setting, "--epsilon", str(epsilon),
                                        "--input", str(inp), "--output", str(out)])
        assert code == 1 and stdout == "" and not out.exists()
        assert stderr == f"error: header value {max(last, epsilon)} does not fit in 64 bits\n", stderr

    def test_ingestion_error_line_number(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("1\n5\n4\n9\n")
        out = tmp_path / "f.pla"
        code, _, stderr = run_cli(["build", "--setting", "compression", "--epsilon", "1",
                                   "--input", str(inp), "--output", str(out)])
        assert code == 1
        assert stderr.startswith("error:") and "line 3" in stderr

    def test_bad_magic_error(self, tmp_path):
        f = tmp_path / "junk.pla"
        f.write_bytes(b"JUNKJUNKJUNK" * 10)
        code, _, stderr = run_cli(["predict", str(f), "--x", "1"])
        assert code == 1 and stderr.startswith("error:")


class TestStatsAndBounds:
    def test_stats_json(self, seq_file, tmp_path):
        path, values = seq_file
        out = tmp_path / "g.pla"
        run_cli(["build", "--setting", "compression", "--epsilon", "2",
                 "--input", str(path), "--output", str(out)])
        code, stdout, _ = run_cli(["stats", str(out), "--report", "json", "--input", str(path)])
        assert code == 0
        rep = json.loads(stdout)
        assert rep["redundancy_bits"] > 0
        assert rep["n"] == len(values)
        comp = rep["components"]
        assert rep["total_bits"] == sum(comp.values())

    def test_stats_text_components_sum(self, seq_file, tmp_path):
        path, _ = seq_file
        out = tmp_path / "h.pla"
        run_cli(["build", "--setting", "indexing", "--epsilon", "4",
                 "--input", str(path), "--output", str(out)])
        code, stdout, _ = run_cli(["stats", str(out)])
        assert code == 0
        kv = dict(line.split("=", 1) for line in stdout.strip().splitlines())
        comp_total = sum(int(v) for k, v in kv.items() if k.startswith("component."))
        assert comp_total == int(kv["total_bits"])
        assert float(kv["redundancy_bits"]) > 0

    def test_bounds_command(self, tmp_path):
        yf = tmp_path / "y.txt"
        yf.write_text("3\n")
        code, stdout, _ = run_cli(["bounds", "--setting", "compression", "--ell", "1",
                                   "--epsilon", "1", "--u", "5", "--n", "4",
                                   "--y-file", str(yf)])
        assert code == 0
        assert "count=45" in stdout

    def test_bounds_general_indexing(self):
        code, stdout, _ = run_cli(["bounds", "--setting", "indexing", "--ell", "2",
                                   "--epsilon", "1", "--u", "10", "--n", "8"])
        assert code == 0
        assert "count=11340" in stdout

    def test_oracle_count_agreement(self, tmp_path):
        yf = tmp_path / "y.txt"
        yf.write_text("2\n4\n")
        code, stdout, _ = run_cli(["oracle-count", "--setting", "compression", "--ell", "2",
                                   "--epsilon", "1", "--u", "6", "--n", "6",
                                   "--y-file", str(yf)])
        assert code == 0
        assert "enumerated=729" in stdout and "agreement=yes" in stdout
        assert "full_formula=15309" in stdout

    def test_oracle_count_indexing(self, tmp_path):
        xf = tmp_path / "x.txt"
        xf.write_text("1\n4\n")
        code, stdout, _ = run_cli(["oracle-count", "--setting", "indexing", "--ell", "2",
                                   "--epsilon", "1", "--u", "10", "--n", "8",
                                   "--x-file", str(xf)])
        assert code == 0
        assert "enumerated=810" in stdout and "agreement=yes" in stdout

    def test_domain_error_exit(self):
        code, _, stderr = run_cli(["bounds", "--setting", "indexing", "--ell", "3",
                                   "--epsilon", "4", "--u", "10", "--n", "8"])
        assert code == 1 and stderr.startswith("error:")


class TestInProcessMain:
    def test_main_returns_error_code(self, tmp_path, capsys):
        code = main(["predict", str(tmp_path / "missing.pla"), "--x", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mode", ["ef", "rs"])
    @pytest.mark.parametrize("setting, value", [("compression", 5), ("indexing", 1)])
    def test_stats_on_one_value(self, tmp_path, capsys, setting, value, mode):
        # n = 1 (compression) and u = 1 (indexing): log2 of either is 0
        inp = tmp_path / "one.txt"
        inp.write_text(f"{value}\n")
        out = tmp_path / "one.pla"
        assert main(["build", "--setting", setting, "--mode", mode, "--epsilon", "1",
                     "--input", str(inp), "--output", str(out)]) == 0
        assert main(["stats", str(out)]) == 0
        assert "redundancy_bits=" in capsys.readouterr().out
        assert main(["stats", str(out), "--report", "json", "--input", str(inp)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["n"] == 1 and rep["u"] == value
        assert all(math.isfinite(bits) for bits in rep["baseline_bits"].values())
