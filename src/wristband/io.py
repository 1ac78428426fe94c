"""Batch file serialization and run reports.

Batch files are a fixed little-endian binary layout:

    bytes 0..3    magic "WBPC"
    bytes 4..7    uint32 version (currently 1)
    bytes 8..15   uint64 n
    bytes 16..23  uint64 d
    bytes 24..    n*d IEEE-754 binary64, row-major

Run reports and calibration tables are versioned plain JSON documents,
written by `_document_text` and checked on reading by `_parse_document`:
the bytes decode, the document is a JSON object, and its
`format_version` is the reader's.  Python's `json` writes a float as
its shortest repr, which parses back to the same double, so both
round-trip bit for bit; wall-clock times live under a report's
"timing" key, the single part of a report that is not reproducible
across reruns.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError
from .wristband_map import validate_point_batch

__all__ = [
    "BATCH_MAGIC",
    "BATCH_VERSION",
    "write_batch",
    "read_batch",
    "write_report",
    "read_report",
]

BATCH_MAGIC = b"WBPC"
BATCH_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
REPORT_FORMAT_VERSION = 4


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


def _document_text(doc: dict) -> str:
    """A versioned document as JSON text: sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_document(text: str | bytes, noun: str, version: int) -> dict:
    """The JSON object `text` holds if its format_version is `version`; else a
    `FormatError` that names the document as `noun`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, not decodable, or too deep
        raise FormatError(f"{noun} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{noun} must be a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != version:
        raise FormatError(f"unsupported {noun} format_version {doc.get('format_version')!r}")
    return doc


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_document_text(report))


def read_report(path) -> dict:
    """The report `write_report` wrote; any malformed document, undecodable bytes
    included, is a `FormatError`."""
    with open(path, "rb") as fh:
        report = _parse_document(fh.read(), "report", REPORT_FORMAT_VERSION)
    argv = report.get("argv")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise FormatError(f"report argv must be a list of strings, got {argv!r}")
    if "metrics" not in report:
        raise FormatError("report has no metrics")
    if not isinstance(report.get("cwd"), str):
        raise FormatError(f"report cwd must be a string, got {report.get('cwd')!r}")
    return report
