"""Run-record persistence: JSON Lines with a resolved-config header.

Line 1 of a record file is {"config": <resolved run config>}; every
following line is one RunRecord. Serialization is compact with a fixed
key order, so re-running a config with the same seed reproduces the
file byte for byte except for wall_clock_ms (and the output path echoed
in the header), which comparable_bytes strips before comparison.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Any, Iterable, Sequence

from .core import RunRecord
from .errors import RecordIoError

_RECORD_KEYS = (
    "slow_step",
    "best_value",
    "network_output",
    "parameter_snapshot",
    "wall_clock_ms",
)


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    return {
        "slow_step": record.slow_step,
        "best_value": record.best_value,
        "network_output": list(record.network_output),
        "parameter_snapshot": dict(record.parameter_snapshot),
        "wall_clock_ms": record.wall_clock_ms,
    }


def record_from_dict(data: dict[str, Any]) -> RunRecord:
    missing = [k for k in _RECORD_KEYS if k not in data]
    if missing:
        raise RecordIoError(f"record line is missing keys {missing}")
    extra = [k for k in data if k not in _RECORD_KEYS]
    if extra:
        raise RecordIoError(f"record line has unknown keys {extra}")
    return RunRecord(
        slow_step=int(data["slow_step"]),
        best_value=None if data["best_value"] is None else float(data["best_value"]),
        network_output=[float(v) for v in data["network_output"]],
        parameter_snapshot={k: float(v) for k, v in data["parameter_snapshot"].items()},
        wall_clock_ms=float(data["wall_clock_ms"]),
    )


def _dump(data: dict[str, Any]) -> str:
    try:
        return json.dumps(data, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise RecordIoError(f"record is not strict-JSON serializable: {exc}") from None


def write_run_file(path: str, config: dict[str, Any], records: Iterable[RunRecord]) -> None:
    """Write the header line and one line per record to <path>.tmp, then move
    it onto path: a failed write leaves any earlier file at path as it was."""
    lines = [_dump({"config": config})]
    lines.extend(_dump(record_to_dict(r)) for r in records)
    temporary = f"{path}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(temporary, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(temporary, path)
    except OSError as exc:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise RecordIoError(f"cannot write record file {path}: {exc}") from None


def read_run_file(path: str) -> tuple[dict[str, Any], list[RunRecord]]:
    try:
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        raise RecordIoError(f"cannot read record file {path}: {exc}") from None
    if not lines:
        raise RecordIoError(f"record file {path} is empty")
    parsed = []
    for number, line in enumerate(lines, start=1):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise RecordIoError(f"{path}:{number}: invalid JSON: {exc}") from None
    header = parsed[0]
    if not isinstance(header, dict) or "config" not in header:
        raise RecordIoError(f"{path}:1: expected a header line with a config")
    return header["config"], [record_from_dict(d) for d in parsed[1:]]


def comparable_bytes(path: str) -> bytes:
    """Canonical content for determinism comparisons.

    Drops wall_clock_ms from every record and the output path from the
    header, so two runs of the same config+seed compare equal wherever
    their files were written.
    """
    config, records = read_run_file(path)
    config = {k: v for k, v in config.items() if k != "out"}
    lines = [_dump({"config": config})]
    for record in records:
        data = record_to_dict(record)
        del data["wall_clock_ms"]
        lines.append(_dump(data))
    return ("\n".join(lines) + "\n").encode()


SUMMARY_COLUMNS = ("file", "architecture", "seed", "final_best", "iterations", "wall_clock_ms")


def _architecture_of(config: dict[str, Any]) -> str:
    if "cross" in config:
        return "cross"
    explicit = config.get("architecture")
    if explicit:
        return str(explicit)
    for kind in ("ann", "aco", "pso", "eca"):
        if kind in config:
            return kind
    return "unknown"


def summarize(paths: Sequence[str]) -> list[dict[str, Any]]:
    """One summary row per record file, in sorted path order."""
    rows = []
    for path in sorted(paths):
        config, records = read_run_file(path)
        if not records:
            raise RecordIoError(f"record file {path} has no records")
        final = records[-1]
        total_ms = math.fsum(r.wall_clock_ms for r in records)
        rows.append(
            {
                "file": path,
                "architecture": _architecture_of(config),
                "seed": config.get("seed"),
                "final_best": final.best_value,
                "iterations": final.slow_step,
                "wall_clock_ms": total_ms,
            }
        )
    return rows


def summary_csv(rows: Sequence[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = dict(row)
        if out.get("final_best") is None:
            out["final_best"] = ""
        writer.writerow(out)
    return buffer.getvalue()
