import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristband import __version__
from wristband.calibration import LOSS_PATHS, CalibrationTable
from wristband import cli
from wristband.cli import _build_parser, cli_dispatch, main
from wristband.errors import FormatError
from wristband.generators import (
    RngStream,
    gaussian_batch,
    parity_batch,
    rac_batch,
    x_batch,
)
from wristband.io import (
    BATCH_MAGIC,
    BATCH_VERSION,
    REPORT_FORMAT_VERSION,
    read_batch,
    read_report,
    write_batch,
    write_report,
)
from wristband.optimize import SCHEDULES, OptimizeConfig
from wristband.pairwise import REDUCTIONS, KernelConfig


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

    @pytest.mark.parametrize("n, d", [(2**63, 0), (0, 3), (4, 0), (0, 0)])
    def test_empty_header_rejected(self, tmp_path, n, d):
        # write_batch never writes an empty batch; such a header is malformed.
        path = tmp_path / "b.wbpc"
        path.write_bytes(struct.pack("<4sIQQ", b"WBPC", 1, n, d))
        with pytest.raises(FormatError, match=rf"n={n}, d={d}"):
            read_batch(path)
        assert run(["score", "--in", str(path), "--seed", "0"]) == 1


@st.composite
def corrupted_batch_files(draw):
    """A written batch's bytes, then any of: header fields replaced, payload
    cut, padded or with a byte changed, the whole file cut short."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    header = [BATCH_MAGIC, BATCH_VERSION, n, d]
    fields = [st.one_of(st.just(BATCH_MAGIC), st.binary(min_size=4, max_size=4)),
              st.one_of(st.just(BATCH_VERSION), st.integers(0, 2**32 - 1)),
              st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)),
              st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1))]
    for i, field in enumerate(fields):
        if draw(st.booleans()):
            header[i] = draw(field)
    payload = bytearray(np.ascontiguousarray(x, dtype="<f8").tobytes())
    edit = draw(st.sampled_from(["none", "cut", "pad", "byte"]))
    if edit == "cut":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif edit == "pad":
        payload += draw(st.binary(min_size=1, max_size=24))
    elif edit == "byte":
        payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))
    blob = struct.pack("<4sIQQ", *header) + bytes(payload)
    if draw(st.integers(0, 9)) == 0:
        blob = blob[:draw(st.integers(0, 23))]
    return x, blob


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=corrupted_batch_files())
def test_read_batch_returns_the_file_or_a_format_error(tmp_path_factory, case):
    # Any other exception (struct, numpy reshape or memory errors) is a
    # bug.  The untouched file reads back; any file it accepts is read
    # exactly as its header describes.
    x, blob = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.wbpc"
    path.write_bytes(blob)
    try:
        got = read_batch(path)
    except FormatError:
        assert blob != struct.pack("<4sIQQ", BATCH_MAGIC, BATCH_VERSION, *x.shape) + x.tobytes()
        return
    magic, version, n, d = struct.unpack_from("<4sIQQ", blob)
    assert (magic, version) == (BATCH_MAGIC, BATCH_VERSION)
    assert got.shape == (n, d) and got.tobytes() == blob[24:] and np.all(np.isfinite(got))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def fuzzed_reports(draw):
    """Arbitrary bytes, an arbitrary JSON document, or a minimal valid report
    with each checked key kept, deleted or replaced by any JSON value."""
    kind = draw(st.sampled_from(["bytes", "json", "report"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    doc = {"format_version": REPORT_FORMAT_VERSION, "argv": ["gen"], "cwd": ".", "metrics": {}}
    for key in list(doc):
        edit = draw(st.sampled_from(["keep", "delete", "replace"]))
        if edit == "delete":
            del doc[key]
        elif edit == "replace":
            doc[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(blob=fuzzed_reports())
def test_read_report_returns_a_report_or_a_format_error(tmp_path_factory, blob):
    # Any other exception (a decode or type error) is a bug.  An accepted
    # report is never replayed here: a drawn argv could start real work.
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(blob)
    try:
        report = read_report(path)
    except FormatError:
        return
    assert isinstance(report, dict) and "metrics" in report and isinstance(report["cwd"], str)
    assert isinstance(report["argv"], list) and all(isinstance(a, str) for a in report["argv"])


class TestReportEncoding:
    def test_floats_roundtrip(self, tmp_path):
        # Plain JSON numbers: each float is written as its shortest repr, which
        # reads back as the same double (float `==` compares the bits here).
        tree = {"a": 0.1 + 0.2, "b": [1.0 / 3.0, {"c": 2.0**-52}], "n": 7, "s": "txt"}
        path = tmp_path / "r.json"
        write_report(path, {"format_version": REPORT_FORMAT_VERSION, "argv": ["gen"],
                            "cwd": ".", "metrics": tree})
        text = path.read_text()
        assert '"a": 0.30000000000000004' in text and '"c": 2.220446049250313e-16' in text
        back = read_report(path)["metrics"]
        assert back == tree and type(back["b"][0]) is float


def run(argv):
    return cli_dispatch(argv)


# Two files that do not decode to JSON text: a UTF-16 byte-order mark before
# bytes that are not JSON, and bytes that are not UTF-8.
UNDECODABLE = (bytes.fromhex("fffe00626164"), b"\xffbad")


# The command-line spellings, written out: the CLI derives them from the
# library's name lists and must accept exactly these.
CLI_KINDS = {
    "gaussian": gaussian_batch,
    "x": x_batch,
    "rac": rac_batch,
    "mixture5": None,  # None: parity_batch under the library name
    "two-mode": None,
    "student-t": None,
    "ring": None,
}
CLI_LOSSES = {
    "wristband-pairwise": "pairwise",  # the calibration path it needs
    "wristband-spectral": "spectral",
    "mmd": None,
    "sliced-w2": None,
}
CLI_REDUCTIONS = {"global": "global", "per-point": "per_point"}  # spelling -> library name


class TestCliSpellings:
    @pytest.mark.parametrize("kind", CLI_KINDS)
    def test_gen_kind(self, kind, tmp_path):
        out, rpt = tmp_path / "g.wbpc", tmp_path / "g.json"
        assert run(["gen", "--kind", kind, "--n", "16", "--d", "3", "--seed", "4",
                    "--out", str(out), "--report", str(rpt)]) == 0
        stream = RngStream(4, f"gen/{kind}")
        gen = CLI_KINDS[kind]
        if gen is None:
            want = parity_batch(kind.replace("-", "_"), 16, 3, stream)
        else:
            want = gen(16, 3, stream)
        assert read_batch(out).tobytes() == want.tobytes()
        assert read_report(rpt)["config"]["kind"] == kind
        if "-" in kind:
            assert run(["gen", "--kind", kind.replace("-", "_"), "--n", "16", "--d", "3",
                        "--out", str(out)]) == 2

    @pytest.mark.parametrize("loss", CLI_LOSSES)
    def test_optimize_loss(self, loss, tmp_path):
        out, rpt = tmp_path / "o.wbpc", tmp_path / "o.json"
        argv = ["optimize", "--loss", loss, "--kind", "gaussian", "--n", "16", "--d", "3",
                "--steps", "2", "--seed", "1", "--out", str(out), "--report", str(rpt)]
        path = CLI_LOSSES[loss]
        if path is not None:
            calib = tmp_path / "calib.json"
            assert run(["calibrate", "--n", "16", "--d", "3", "--reps", "4",
                        "--loss-path", path, "--out", str(calib)]) == 0
            argv += ["--calib", str(calib)]
        assert run(argv) == 0
        report = read_report(rpt)
        assert report["config"]["loss"] == loss
        assert report["config"]["steps"] == 2
        if "-" in loss:
            assert run([a.replace(loss, loss.replace("-", "_")) for a in argv]) == 2

    @pytest.mark.parametrize("reduction", CLI_REDUCTIONS)
    def test_calibrate_reduction(self, reduction, tmp_path):
        out = tmp_path / "t.json"

        def argv(spelling):
            return ["calibrate", "--n", "16", "--d", "3", "--reps", "2",
                    "--reduction", spelling, "--out", str(out)]

        assert run(argv(reduction)) == 0
        assert CalibrationTable.from_json(out.read_text()).cfg.reduction == CLI_REDUCTIONS[reduction]
        if "-" in reduction:
            assert run(argv(CLI_REDUCTIONS[reduction])) == 2

    def test_calibrate_weights(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        argv = ["calibrate", "--n", "16", "--d", "3", "--reps", "2", "--out", str(out), "--weights"]
        assert run(argv + ["1,0.5,1"]) == 0
        assert CalibrationTable.from_json(out.read_text()).cfg.weights == (1.0, 0.5, 1.0)

    @pytest.mark.parametrize("argv, message", [
        (["parity", "--dims", "x"],
         "argument --dims: expected comma-separated integers, got 'x'"),
        (["calibrate", "--n", "8", "--d", "3", "--weights", "1,x,1", "--out", "t.json"],
         "argument --weights: expected three reals w_rep,w_rad,w_mom, got '1,x,1'"),
        (["calibrate", "--n", "8", "--d", "3", "--weights", "1,2", "--out", "t.json"],
         "argument --weights: expected three reals w_rep,w_rad,w_mom, got '1,2'"),
    ])
    def test_malformed_list_flags_name_their_format(self, tmp_path, monkeypatch, capsys, argv,
                                                     message):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n")

    def test_optimize_flags(self, capsys):
        assert run(["optimize", "--help"]) == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == {
            "--help", "--loss", "--steps", "--lr", "--calib", "--in", "--kind", "--n", "--d",
            "--seed", "--schedule", "--log-stride", "--projections", "--out", "--report",
        }
        for spelling in CLI_LOSSES:
            assert spelling in text

    def test_flag_defaults_and_choices_come_from_the_library(self, capsys):
        parser = _build_parser()
        args = parser.parse_args(["calibrate", "--n", "8", "--d", "3", "--out", "t.json"])
        kernel = {f.name: getattr(args, f.name) for f in fields(KernelConfig)}
        assert kernel == asdict(KernelConfig())
        args = parser.parse_args(["optimize", "--loss", "mmd", "--out", "o.wbpc"])
        opt = OptimizeConfig()
        assert (args.steps, args.lr, args.schedule, args.seed, args.log_stride,
                args.projections) == (opt.steps, opt.lr, opt.schedule, opt.seed,
                                      opt.log_stride, opt.sliced_projections)
        assert tuple(CLI_REDUCTIONS.values()) == REDUCTIONS
        for sub, flag, choices in [("calibrate", "--reduction", tuple(CLI_REDUCTIONS)),
                                   ("calibrate", "--loss-path", LOSS_PATHS),
                                   ("optimize", "--schedule", SCHEDULES)]:
            assert run([sub, "--help"]) == 0
            listed = re.search(flag + r" \{([^}]*)\}", capsys.readouterr().out).group(1)
            assert tuple(listed.split(",")) == choices


# One small run of every subcommand; "{tmp}" stands for the test's directory.
SUBCOMMAND_ARGV = {
    "gen": ["--kind", "x", "--n", "16", "--d", "3", "--out", "{tmp}/g.wbpc"],
    "calibrate": ["--n", "16", "--d", "3", "--reps", "2", "--out", "{tmp}/c.json"],
    "optimize": ["--loss", "mmd", "--kind", "x", "--n", "16", "--d", "3", "--steps", "2",
                 "--out", "{tmp}/o.wbpc"],
    "score": ["--in", "{tmp}/in.wbpc", "--ref-batches", "2", "--null-batches", "2"],
    "parity": ["--dims", "4", "--ns", "16", "--reps", "2", "--timing-reps", "1"],
    "selftest": [],
}


def test_every_subcommand_is_listed(capsys):
    assert run(["--help"]) == 0
    usage = capsys.readouterr().out
    listed = re.search(r"\{([a-z,]+)\}", usage).group(1)
    assert sorted(listed.split(",")) == sorted(SUBCOMMAND_ARGV)
    assert "--replay REPORT" in usage


def test_cli_import_leaves_the_assignment_solver_unloaded():
    # Only `score` solves an assignment, so the other commands never load scipy.optimize.
    code = "import sys, wristband.cli; sys.exit('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("sub", SUBCOMMAND_ARGV)
def test_every_subcommand_writes_a_report(sub, tmp_path):
    write_batch(tmp_path / "in.wbpc", gaussian_batch(16, 3, RngStream(0, "in")))
    rpt = tmp_path / "r.json"
    argv = [sub] + [a.format(tmp=tmp_path) for a in SUBCOMMAND_ARGV[sub]] + ["--report", str(rpt)]
    assert run(argv) == 0
    report = read_report(rpt)
    # Each fact once: the flags under `config`, no top-level copy of them, and
    # metrics that repeat neither a flag nor a code constant.
    assert set(report) == {"format_version", "tool", "tool_version", "argv", "cwd", "config",
                           "metrics", "outputs", "timing"}
    assert report["format_version"] == 4 and report["tool_version"] == __version__
    assert report["cwd"] == str(Path.cwd())
    assert report["config"]["subcommand"] == sub
    assert report["argv"] == argv
    assert report["config"].get("seed") == (None if sub == "selftest" else 0)
    assert not set(report["metrics"]) & set(report["config"])
    assert "pairwise_tile" not in report["config"]
    text = json.dumps(report)
    for constant in ("generator_constants", "reference_provenance", "w2_convention"):
        assert constant not in text
    assert all("modes" not in row for row in report["metrics"].get("parity", []))
    out = report["config"].get("out")
    assert report["outputs"] == ({} if out is None else
                                 {"out": hashlib.sha256(Path(out).read_bytes()).hexdigest()})
    assert report["metrics"]
    assert report["timing"]["wall_time_s"] > 0.0
    assert run(["--replay", str(rpt)]) == 0


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
        metrics = rpt["metrics"]
        assert metrics["final_loss"] < metrics["initial_loss"]
        score_report = tmp_path / "score.json"
        assert run(["score", "--in", str(opt), "--ref-batches", "8",
                    "--null-batches", "16", "--seed", "4",
                    "--report", str(score_report)]) == 0
        z = read_report(score_report)["metrics"]["z"]
        assert np.isfinite(z)

    @pytest.mark.parametrize("start, problem", [
        (["--in", "RAW", "--kind", "x", "--n", "99", "--d", "7"],
         "optimize: --in takes no --kind, --n, --d"),
        (["--in", "RAW", "--n", "99"], "optimize: --in takes no --n"),
        (["--kind", "gaussian", "--n", "8"],
         "optimize: give --in, or --kind with --n and --d (missing --d)"),
        ([], "optimize: give --in, or --kind with --n and --d (missing --kind, --n, --d)"),
    ], ids=["kind-n-d", "n", "kind-n", "none"])
    def test_optimize_refuses_in_with_generator_flags(self, tmp_path, capsys, start, problem):
        # The start rule is a usage error: argparse's exit 2, with the usage
        # line and the flag that is wrong or missing.
        raw, out = tmp_path / "raw.wbpc", tmp_path / "opt.wbpc"
        write_batch(raw, gaussian_batch(16, 3, RngStream(0, "raw")))
        start = [str(raw) if arg == "RAW" else arg for arg in start]
        assert run(["optimize", "--loss", "mmd", *start, "--steps", "2",
                    "--out", str(out), "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wristband ") and err.endswith(f"error: {problem}\n")
        assert not out.exists() and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("loss", ["mmd", "sliced-w2"])
    def test_optimize_refuses_calib_for_baseline_losses(self, tmp_path, capsys, loss):
        # A readable table: the library refuses it, not a missing file.
        calib, out = tmp_path / "calib.json", tmp_path / "opt.wbpc"
        assert run(["calibrate", "--n", "16", "--d", "3", "--reps", "4",
                    "--out", str(calib)]) == 0
        capsys.readouterr()
        assert run(["optimize", "--loss", loss, "--kind", "x", "--n", "16", "--d", "3",
                    "--steps", "2", "--calib", str(calib), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "takes no calibration table" in err
        assert not out.exists()

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
        z = read_report(report)["metrics"]["z"]
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

    def test_main_exits_with_the_dispatch_code(self, monkeypatch, capsys):
        for argv, code in ((["--version"], 0), (["frobnicate"], 2)):
            monkeypatch.setattr(sys, "argv", ["wristband"] + argv)
            with pytest.raises(SystemExit) as exc:
                main()
            assert exc.value.code == code
        assert capsys.readouterr().out == f"{__version__}\n"

    def test_score_refuses_one_dimension_before_the_reference(self, tmp_path, capsys):
        path = tmp_path / "line.wbpc"
        write_batch(path, gaussian_batch(256, 1, RngStream(0, "line")))
        assert run(["score", "--in", str(path)]) == 1
        assert capsys.readouterr().err == "error: d must be >= 2, got 1\n"

    def test_numeric_errors_exit_1(self, tmp_path):
        missing = tmp_path / "missing.wbpc"
        assert run(["score", "--in", str(missing), "--seed", "0"]) == 1
        # A report that cannot be written fails the run.
        assert run(["gen", "--kind", "x", "--n", "8", "--d", "2", "--out", str(tmp_path / "g.wbpc"),
                    "--report", str(tmp_path / "no-dir" / "r.json")]) == 1

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

    def test_replay_matches(self, tmp_path, capsys):
        out = tmp_path / "g.wbpc"
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "two-mode", "--n", "32", "--d", "4",
                    "--seed", "2", "--out", str(out), "--report", str(rpt)]) == 0
        # `--replay PATH` and `--replay=PATH` are one input to the parser.
        for argv in (["--replay", str(rpt)], [f"--replay={rpt}"]):
            capsys.readouterr()
            assert run(argv) == 0
            assert capsys.readouterr().out.endswith("replay: report matches\n")

    @pytest.mark.parametrize("argv", [["--replay"], ["--replay", "a.json", "b.json"], [],
                                      ["--replay", "a.json", "selftest"],
                                      ["selftest", "--replay", "a.json"]],
                             ids=["no-file", "two-files", "nothing", "with-subcommand",
                                  "after-subcommand"])
    def test_replay_usage_exits_2(self, argv, capsys):
        # argparse reports every usage error, and a replay runs no subcommand.
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("usage: wristband ")

    def test_replay_never_replays_a_replay(self, tmp_path, capsys):
        # A report whose recorded argv is itself a replay (of this very report):
        # the rerun refuses it, so the replay ends with exit 1 and no recursion.
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "8", "--d", "2",
                    "--out", str(tmp_path / "g.wbpc"), "--report", str(rpt)]) == 0
        for argv in (["--replay", str(rpt)], [f"--replay={rpt}"]):
            doc = json.loads(rpt.read_text())
            doc["argv"] = argv
            rpt.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["--replay", str(rpt)]) == 1
            out, err = capsys.readouterr()
            assert out == "replay: rerun exited with 1\n"
            assert err == "error: a report's argv must run a subcommand, not --replay\n"

    def test_replay_of_a_failing_rerun_exits_1(self, tmp_path, capsys):
        # A rerun that fails (its input is gone: exit 1) or no longer parses
        # (a report recorded before `--reduction` took the spelling per-point: exit 2).
        batch, calib = tmp_path / "in.wbpc", tmp_path / "c.json"
        write_batch(batch, gaussian_batch(16, 3, RngStream(0, "in")))
        score, cal = tmp_path / "score.json", tmp_path / "cal.json"
        assert run(["score", "--in", str(batch), "--ref-batches", "2", "--null-batches", "2",
                    "--report", str(score)]) == 0
        assert run(["calibrate", "--n", "16", "--d", "3", "--reps", "2", "--reduction",
                    "per-point", "--out", str(calib), "--report", str(cal)]) == 0
        batch.unlink()
        doc = json.loads(cal.read_text())
        doc["argv"] = [a.replace("per-point", "per_point") for a in doc["argv"]]
        cal.write_text(json.dumps(doc))
        for rpt, code in ((score, 1), (cal, 2)):
            capsys.readouterr()
            assert run(["--replay", str(rpt)]) == 1
            assert f"replay: rerun exited with {code}\n" in capsys.readouterr().out

    def test_replay_is_exact(self, tmp_path, capsys):
        # One ulp in one recorded metric is a mismatch.
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "16", "--d", "3", "--seed", "5",
                    "--out", str(tmp_path / "g.wbpc"), "--report", str(rpt)]) == 0
        doc = json.loads(rpt.read_text())
        doc["metrics"]["mean_norm"] = math.nextafter(doc["metrics"]["mean_norm"], math.inf)
        rpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["--replay", str(rpt)]) == 1
        assert "replay: MISMATCH in metrics\n" in capsys.readouterr().out

    @pytest.mark.parametrize("key,edit", [
        ("config", lambda doc: doc["config"].update(n=17)),
        ("config", lambda doc: doc["config"].update(seed=6)),
        ("tool_version", lambda doc: doc.update(tool_version="9.9")),
        ("outputs", lambda doc: doc["outputs"].update(out="0" * 64)),
    ], ids=["config.n", "config.seed", "tool_version", "outputs.out"])
    def test_replay_checks_every_key_but_timing(self, tmp_path, capsys, key, edit):
        # Any edit outside `timing` is a mismatch, named by its top-level key;
        # an edit inside `timing` is not.
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "16", "--d", "3", "--seed", "5",
                    "--out", str(tmp_path / "g.wbpc"), "--report", str(rpt)]) == 0
        doc = json.loads(rpt.read_text())
        doc["timing"]["wall_time_s"] = -1.0
        rpt.write_text(json.dumps(doc))
        assert run(["--replay", str(rpt)]) == 0
        edit(doc)
        rpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["--replay", str(rpt)]) == 1
        assert f"replay: MISMATCH in {key}\n" in capsys.readouterr().out

    def test_version_2_report_refused(self, tmp_path, capsys):
        # Version 2 repeated the seed under `seeds` and the subcommand at the
        # top level, and recorded no output digest; no reader for it is kept.
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "8", "--d", "2", "--seed", "3",
                    "--out", str(tmp_path / "g.wbpc"), "--report", str(rpt)]) == 0
        doc = json.loads(rpt.read_text())
        del doc["outputs"]
        doc.update(format_version=2, seeds={"seed": 3}, subcommand="gen")
        rpt.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version 2"):
            read_report(rpt)
        capsys.readouterr()
        assert run(["--replay", str(rpt)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_version_3_report_refused(self, tmp_path, capsys):
        # Version 3 recorded no cwd, so a relative input could not be found
        # from another directory; no reader for it is kept.
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "8", "--d", "2", "--seed", "3",
                    "--out", str(tmp_path / "g.wbpc"), "--report", str(rpt)]) == 0
        doc = json.loads(rpt.read_text())
        del doc["cwd"]
        doc["format_version"] = 3
        doc["config"]["pairwise_tile"] = 128
        rpt.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version 3"):
            read_report(rpt)
        capsys.readouterr()
        assert run(["--replay", str(rpt)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_replay_finds_relative_inputs_from_another_directory(self, tmp_path, monkeypatch):
        # Recorded in sub/ with a relative --in, replayed from its parent: the
        # rerun runs in the recorded cwd, and the replay changes back after it.
        sub = tmp_path / "sub"
        sub.mkdir()
        monkeypatch.chdir(sub)
        write_batch("raw.wbpc", gaussian_batch(16, 3, RngStream(0, "raw")))
        assert run(["score", "--in", "raw.wbpc", "--ref-batches", "2", "--null-batches", "2",
                    "--report", "s.json"]) == 0
        monkeypatch.chdir(tmp_path)
        assert run(["--replay", "sub/s.json"]) == 0
        assert Path.cwd() == tmp_path
        doc = json.loads((sub / "s.json").read_text())
        doc["cwd"] = str(tmp_path / "gone")
        (sub / "s.json").write_text(json.dumps(doc))
        assert run(["--replay", "sub/s.json"]) == 1
        assert Path.cwd() == tmp_path

    def test_version_1_report_refused(self, tmp_path, capsys):
        # Version 1 wrote floats as decimal strings; no reader for it is kept.
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "8", "--d", "2",
                    "--out", str(tmp_path / "g.wbpc"), "--report", str(rpt)]) == 0
        doc = json.loads(rpt.read_text())
        assert doc["format_version"] == REPORT_FORMAT_VERSION == 4
        doc["format_version"] = 1
        doc["metrics"]["mean_norm"] = repr(doc["metrics"]["mean_norm"])
        rpt.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version 1"):
            read_report(rpt)
        capsys.readouterr()
        assert run(["--replay", str(rpt)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_replay_leaves_equals_form_outputs_untouched(self, tmp_path, monkeypatch):
        # Recorded as --out=FILE --report=FILE: the replay writes into its
        # own directory, not over the recorded files or into the cwd.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "b.wbpc"
        rpt = tmp_path / "r.json"
        assert run(["gen", "--kind", "gaussian", "--n", "16", "--d", "3", "--seed", "4",
                    f"--out={out.name}", f"--report={rpt.name}"]) == 0
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in (out, rpt)]
        assert run(["--replay", str(rpt)]) == 0
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in (out, rpt)] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.wbpc", "r.json"]

    @pytest.mark.parametrize("field,value", [("argv", None), ("argv", "gen --n 8"),
                                             ("argv", ["gen", 8]), ("metrics", None),
                                             ("cwd", None), ("cwd", 3),
                                             ("JSON", UNDECODABLE[0]), ("JSON", UNDECODABLE[1])],
                             ids=["no-argv", "argv-string", "argv-non-string", "no-metrics",
                                  "no-cwd", "cwd-non-string", "utf16-mark", "not-utf8"])
    def test_replay_of_malformed_report_is_a_format_error(self, tmp_path, capsys, field, value):
        out = tmp_path / "g.wbpc"
        rpt = tmp_path / "g.json"
        assert run(["gen", "--kind", "gaussian", "--n", "8", "--d", "2",
                    "--out", str(out), "--report", str(rpt)]) == 0
        doc = json.loads(rpt.read_text())
        if isinstance(value, bytes):
            rpt.write_bytes(value)
        else:
            if value is None:
                del doc[field]
            else:
                doc[field] = value
            rpt.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=field):
            read_report(rpt)
        capsys.readouterr()
        assert run(["--replay", str(rpt)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_optimize_with_malformed_table_is_an_error(self, tmp_path, capsys):
        calib = tmp_path / "calib.json"
        assert run(["calibrate", "--n", "16", "--d", "3", "--reps", "4",
                    "--out", str(calib)]) == 0
        doc = json.loads(calib.read_text())
        doc["sd_rep"] = -1.0
        for blob in (json.dumps(doc).encode(), *UNDECODABLE):
            calib.write_bytes(blob)
            with pytest.raises(FormatError):
                CalibrationTable.from_json(blob)
            capsys.readouterr()
            assert run(["optimize", "--loss", "wristband-pairwise", "--kind", "gaussian",
                        "--n", "16", "--d", "3", "--steps", "2", "--calib", str(calib),
                        "--out", str(tmp_path / "o.wbpc")]) == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert not (tmp_path / "o.wbpc").exists()

    def test_selftest_reports_failed_and_crashed_checks(self, tmp_path, monkeypatch, capsys):
        checks = [("passes", lambda: True), ("fails", lambda: False), ("crashes", lambda: 1 / 0)]
        monkeypatch.setattr(cli, "_selftest_checks", lambda: checks)
        rpt = tmp_path / "selftest.json"
        assert run(["selftest", "--report", str(rpt)]) == 1
        assert read_report(rpt)["metrics"] == {"passes": "PASS", "fails": "FAIL", "crashes": "ERROR"}
        out = capsys.readouterr().out
        assert "selftest fails: FAIL\n" in out
        assert "selftest crashes: ERROR (division by zero)\n" in out
        assert "selftest: 2 check(s) failed\n" in out

    def test_selftest_fails_a_nondeterministic_calibration(self, monkeypatch, capsys):
        seeds, calibrate = iter((5, 6)), cli.calibrate_null
        monkeypatch.setattr(cli, "calibrate_null",
                            lambda n, d, cfg, reps, seed: calibrate(n, d, cfg, reps, next(seeds)))
        assert run(["selftest"]) == 1
        assert "selftest calibration_determinism: FAIL\n" in capsys.readouterr().out

    def test_selftest_passes(self, tmp_path):
        assert run(["selftest"]) == 0
        rpt = tmp_path / "selftest.json"
        assert run(["selftest", "--report", str(rpt)]) == 0
        assert set(read_report(rpt)["metrics"].values()) == {"PASS"}
        assert run(["--replay", str(rpt)]) == 0
