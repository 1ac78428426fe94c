import json
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def chunk(k, ms, traced, ok=True, probe_ms=2.0):
    return {"k": k, "ns": int(ms * 1e6), "probe_ns": probe_ms * 1e6, "ok": ok, "traced": traced,
            "error": None}


def test_end_to_end_reports_exactly_the_declared_metrics():
    # The machine runs at half speed for the second half: chunk and probe
    # times double together, so probe-relative figures do not move.
    chunks = [chunk(k, 10.0 * (1 + (k > 60)), False, probe_ms=2.0 * (1 + (k > 60)))
              for k in range(1, 121)]
    main = {"chunks": chunks, "ops_per_chunk": 2, "peak_rss_mb": 100.0}
    got = run.end_to_end(main, [1.0, 3.0, 2.0])
    assert {n: m["unit"] for n, m in got.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert got["setup_s"]["value"] == 2.0
    assert got["op_p50_probes"]["value"] == pytest.approx(2.5)
    assert got["op_p90_probes"]["value"] == pytest.approx(2.5)
    assert got["ops_per_probe"]["value"] == pytest.approx(0.4)

    wall = run.wall_clock(main)
    assert wall["op_p50_ms"]["value"] == pytest.approx(7.5)
    assert wall["ops_per_s"]["value"] == pytest.approx(240 / 1.8)
    assert wall["op_fail_ratio"]["value"] == 0.0


def test_per_layer_reports_exactly_the_declared_metrics():
    ms = 1_000_000
    # Chunk 2 is traced: a pairwise call nested in the calibration call,
    # 1 ms of the 10 ms chunk outside any span.
    spans = [
        (0, "calibration.calibrate_null", 0, 9 * ms, -1, 2),
        (1, "pairwise.pairwise_value_from_wristband", 1 * ms, 5 * ms, 0, 2),
        (2, "generators.gaussian_batch", 6 * ms, 7 * ms, 0, 2),
    ]
    main = {"chunks": [chunk(1, 8.0, False), chunk(2, 10.0, True)], "ops_per_chunk": 2,
            "spans": spans, "errors": {"pairwise": 1}, "n": 4}
    got = run.per_layer(main)
    assert {n: m["unit"] for n, m in got.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert got["calibration.calibrate_null.calls"]["value"] == 0.5
    assert got["calibration.calibrate_null.self_ms"]["value"] == pytest.approx(4.0 / 2)
    assert got["pairwise.pairwise_value_from_wristband.self_ms"]["value"] == pytest.approx(2.0)
    assert got["pairwise.errors"]["value"] == 0.5
    assert got["evaluation.w2_exact.calls"]["value"] == 0.0
    assert got["unattributed_ms"]["value"] == pytest.approx(0.5)
    assert got["trace_overhead"]["value"] == pytest.approx(10.0 / 8.0)
    assert got["pairwise.ns_per_pair"]["value"] == pytest.approx(4 * ms / 10)


def test_benchmark_names_the_workloads_the_code_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def test_mismatches_uses_a_relative_tolerance():
    want = {"final_loss": 0.25, "batch_rms": 1.5}
    assert workloads.mismatches({"final_loss": 0.25 + 1e-9, "batch_rms": 1.5 * (1 + 1e-9)}, want) == []
    # Standardized values are compared on a scale of at least one null sd.
    assert workloads.mismatches({"final_loss": 0.25 + 5e-7, "batch_rms": 1.5}, want) == []
    assert len(workloads.mismatches({"final_loss": 0.25 + 2e-6, "batch_rms": 1.5 * (1 + 2e-6)}, want)) == 2
    assert workloads.mismatches({"final_loss": float("nan"), "batch_rms": 1.5}, want)
    assert workloads.mismatches({"batch_rms": 1.5}, want)
