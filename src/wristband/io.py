"""Batch file serialization and run reports.

Batch files are a fixed little-endian binary layout:

    bytes 0..3    magic "WBPC"
    bytes 4..7    uint32 version (currently 1)
    bytes 8..15   uint64 n
    bytes 16..23  uint64 d
    bytes 24..    n*d IEEE-754 binary64, row-major

Run reports are JSON documents carrying the full configuration echo,
seeds, and metrics.  Floats inside reports, calibration tables and
kernel configs are encoded by `jsonify` as their shortest round-trip
decimal strings, so a document parses back to the exact same doubles;
wall-clock times live under a report's "timing" key, the single part
of a report that is not reproducible across reruns.
"""

from __future__ import annotations

import json
import struct
from importlib import metadata

import numpy as np

from .errors import ContractViolation, FormatError
from .wristband_map import validate_point_batch

__all__ = [
    "BATCH_MAGIC",
    "BATCH_VERSION",
    "write_batch",
    "read_batch",
    "jsonify",
    "build_report",
    "write_report",
    "read_report",
    "report_floats",
]

BATCH_MAGIC = b"WBPC"
BATCH_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
REPORT_FORMAT_VERSION = 1


def tool_version() -> str:
    try:
        return metadata.version("wristband")
    except metadata.PackageNotFoundError:
        return "unknown"


def write_batch(path, batch) -> None:
    """Write a point batch; the round trip is byte-lossless."""
    x = validate_point_batch(batch, min_d=1)
    n, d = x.shape
    payload = np.ascontiguousarray(x, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BATCH_MAGIC, BATCH_VERSION, n, d))
        fh.write(payload)


def read_batch(path) -> np.ndarray:
    """Read a point batch, validating magic, version, length, and finiteness."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(
            f"batch file too short: {len(blob)} bytes, header needs {_HEADER.size}"
        )
    magic, version, n, d = _HEADER.unpack_from(blob, 0)
    if magic != BATCH_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {BATCH_MAGIC!r}")
    if version != BATCH_VERSION:
        raise FormatError(f"unsupported batch file version {version} at offset 4")
    if n == 0 or d == 0:
        raise FormatError(f"batch header holds an empty batch (n={n}, d={d}); a batch needs n, d >= 1")
    expected = _HEADER.size + n * d * 8
    if len(blob) != expected:
        raise FormatError(
            f"truncated or oversized payload: expected {expected} bytes total "
            f"(n={n}, d={d}), got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(n, d).copy()
    if not np.all(np.isfinite(data)):
        raise FormatError("batch payload contains non-finite values")
    return data


def jsonify(value):
    """Recursively convert a metrics tree to report JSON conventions.

    Floats become full-precision decimal strings; numpy scalars and
    arrays become native Python values.
    """
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    raise ContractViolation(f"cannot serialize {type(value).__name__} into a report")


def _json_real(value):
    """A JSON float field: a decimal string as its double, any other value as is,
    for the record it builds to check."""
    return float(value) if isinstance(value, str) else value


def report_floats(value):
    """Inverse of :func:`jsonify` for numeric leaves: parse float strings."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    if isinstance(value, dict):
        return {k: report_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [report_floats(v) for v in value]
    return value


def build_report(subcommand: str, argv, config: dict, seeds: dict, metrics: dict,
                 timing: dict, threads: int) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "tool": "wristband",
        "tool_version": tool_version(),
        "subcommand": subcommand,
        "argv": list(argv),
        "config": jsonify(config),
        "seeds": jsonify(seeds),
        "metrics": jsonify(metrics),
        "timing": jsonify(timing),
        "threads": threads,
    }


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path) as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise FormatError(f"report must be a JSON object, got {type(report).__name__}")
    if report.get("format_version") != REPORT_FORMAT_VERSION:
        raise FormatError(
            f"unsupported report format_version {report.get('format_version')!r}"
        )
    argv = report.get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise FormatError(f"report argv must be a list of strings, got {argv!r}")
    if "metrics" not in report:
        raise FormatError("report has no metrics")
    return report
