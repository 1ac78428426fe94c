import json
import struct

import numpy as np
import pytest

from wristband.calibration import CalibrationTable
from wristband.cli import cli_dispatch
from wristband.errors import FormatError
from wristband.io import (
    jsonify,
    read_batch,
    read_report,
    report_floats,
    write_batch,
)


class TestBatchFile:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(33, 7))
        path = tmp_path / "b.wbpc"
        write_batch(path, x)
        assert np.array_equal(read_batch(path), x)

    def test_header_layout(self, tmp_path):
        x = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "b.wbpc"
        write_batch(path, x)
        blob = path.read_bytes()
        magic, version, n, d = struct.unpack_from("<4sIQQ", blob, 0)
        assert magic == b"WBPC" and version == 1 and n == 2 and d == 3
        assert len(blob) == 24 + 48

    def test_truncated_file(self, tmp_path):
        x = np.ones((4, 2))
        path = tmp_path / "b.wbpc"
        write_batch(path, x)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="expected"):
            read_batch(path)

    def test_bad_magic_and_version(self, tmp_path):
        x = np.ones((2, 2))
        path = tmp_path / "b.wbpc"
        write_batch(path, x)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_batch(path)
        write_batch(path, x)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_batch(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "b.wbpc"
        header = struct.pack("<4sIQQ", b"WBPC", 1, 1, 2)
        payload = struct.pack("<2d", 1.0, float("inf"))
        path.write_bytes(header + payload)
        with pytest.raises(FormatError, match="finite"):
            read_batch(path)


class TestReportEncoding:
    def test_floats_roundtrip(self):
        tree = {"a": 0.1 + 0.2, "b": [1.0 / 3.0, {"c": 2.0**-52}], "n": 7, "s": "txt"}
        encoded = jsonify(tree)
        assert isinstance(encoded["a"], str)
        decoded = report_floats(json.loads(json.dumps(encoded)))
        assert decoded["a"] == tree["a"]
        assert decoded["b"][0] == tree["b"][0]
        assert decoded["b"][1]["c"] == tree["b"][1]["c"]


def run(argv):
    return cli_dispatch(argv)


class TestCli:
    def test_gen_and_read(self, tmp_path):
        out = tmp_path / "x.wbpc"
        code = run(["gen", "--kind", "x", "--n", "64", "--d", "2",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        batch = read_batch(out)
        assert batch.shape == (64, 2)
        assert np.all(np.count_nonzero(batch, axis=1) == 1)

    def test_gen_determinism_bytes(self, tmp_path):
        a = tmp_path / "a.wbpc"
        b = tmp_path / "b.wbpc"
        for out in (a, b):
            assert run(["gen", "--kind", "rac", "--n", "32", "--d", "4",
                        "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_calibrate_byte_identical_tables(self, tmp_path):
        a, b = tmp_path / "t1.json", tmp_path / "t2.json"
        base = ["calibrate", "--n", "32", "--d", "3", "--beta", "8",
                "--alpha", "1.0", "--reps", "16", "--seed", "5"]
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        table = CalibrationTable.from_json(a.read_text())
        assert table.n == 32 and table.loss_path == "pairwise"

    def test_optimize_score_pipeline(self, tmp_path):
        calib = tmp_path / "calib.json"
        raw = tmp_path / "raw.wbpc"
        opt = tmp_path / "opt.wbpc"
        report = tmp_path / "report.json"
        assert run(["gen", "--kind", "x", "--n", "48", "--d", "2",
                    "--seed", "1", "--out", str(raw)]) == 0
        assert run(["calibrate", "--n", "48", "--d", "2", "--beta", "64",
                    "--alpha", "0.8", "--reps", "32", "--seed", "2",
                    "--out", str(calib)]) == 0
        assert run(["optimize", "--loss", "wristband-pairwise", "--steps", "40",
                    "--lr", "0.05", "--calib", str(calib), "--in", str(raw),
                    "--seed", "3", "--out", str(opt), "--report", str(report)]) == 0
        rpt = read_report(report)
        metrics = report_floats(rpt["metrics"])
        assert metrics["final_loss"] < metrics["initial_loss"]
        score_report = tmp_path / "score.json"
        assert run(["score", "--in", str(opt), "--ref-batches", "8",
                    "--null-batches", "16", "--seed", "4",
                    "--report", str(score_report)]) == 0
        z = report_floats(read_report(score_report)["metrics"])["z"]
        assert np.isfinite(z)

    def test_optimize_rejects_zero_projections(self, tmp_path, capsys):
        out = tmp_path / "opt.wbpc"
        assert run(["optimize", "--loss", "sliced-w2", "--projections", "0",
                    "--kind", "x", "--n", "16", "--d", "2", "--steps", "2",
                    "--seed", "1", "--out", str(out)]) == 1
        assert "sliced_projections must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_score_raw_x_large_z(self, tmp_path):
        raw = tmp_path / "raw.wbpc"
        report = tmp_path / "score.json"
        assert run(["gen", "--kind", "x", "--n", "512", "--d", "2",
                    "--seed", "7", "--out", str(raw)]) == 0
        assert run(["score", "--in", str(raw), "--ref-batches", "16",
                    "--null-batches", "32", "--seed", "8",
                    "--report", str(report)]) == 0
        z = report_floats(read_report(report)["metrics"])["z"]
        assert z > 10.0

    def test_parity_subcommand(self, tmp_path):
        report = tmp_path / "parity.json"
        assert run(["parity", "--dims", "4", "--ns", "64", "--modes", "3",
                    "--reps", "2", "--timing-reps", "1",
                    "--report", str(report)]) == 0
        rpt = read_report(report)
        rows = rpt["metrics"]["parity"]
        assert rows[0]["d"] == 4
        assert "timing_rows" in rpt["timing"]

    def test_usage_errors_exit_2(self):
        assert run(["gen", "--kind", "nope", "--n", "8", "--d", "2",
                    "--out", "/tmp/x"]) == 2
        assert run(["frobnicate"]) == 2

    def test_numeric_errors_exit_1(self, tmp_path):
        missing = tmp_path / "missing.wbpc"
        assert run(["score", "--in", str(missing), "--seed", "0"]) == 1

    def test_report_determinism_modulo_timing(self, tmp_path):
        # Identical flags, same paths: reports must agree apart from the
        # wall-clock "timing" section.
        out = tmp_path / "g.wbpc"
        rpt = tmp_path / "g.json"
        docs = []
        for _ in range(2):
            assert run(["gen", "--kind", "gaussian", "--n", "16", "--d", "3",
                        "--seed", "9", "--out", str(out), "--report", str(rpt)]) == 0
            doc = read_report(rpt)
            doc.pop("timing")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_replay_matches(self, tmp_path):
        out = tmp_path / "g.wbpc"
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "two-mode", "--n", "32", "--d", "4",
                    "--seed", "2", "--out", str(out), "--report", str(rpt)]) == 0
        assert run(["--replay", str(rpt)]) == 0

    def test_selftest_passes(self):
        assert run(["selftest"]) == 0
