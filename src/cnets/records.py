"""Run-record persistence: JSON Lines with a resolved-config header.

Line 1 of a record file is {"config": <resolved run config>}; every
following line is one RunRecord. Serialization is compact with a fixed
key order, so re-running a config with the same seed reproduces the
file byte for byte except for wall_clock_ms (and the output path echoed
in the header), which comparable_bytes strips before comparison.

Every line is the text json.dumps(..., separators=(",", ":"),
allow_nan=False) gives, made by one shared encoder. A swarm's output is
its global best, which changes only when the best improves, so
RecordEncoder reuses the previous record's network_output text while
the new output prints alike: its elements equal the previous ones in
order, each is of the same type as before, an int, float or bool, and
each zero has the sign it had. Python's == alone is not enough, as
-0.0 == 0.0 and 1 == 1.0 == True each print differently.
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


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# each record key and whether a value is of its kind
_RECORD_KINDS = {
    "slow_step": lambda v: type(v) is int,
    "best_value": lambda v: v is None or _number(v),
    "network_output": lambda v: isinstance(v, list) and all(map(_number, v)),
    "parameter_snapshot": lambda v: isinstance(v, dict) and all(map(_number, v.values())),
    "wall_clock_ms": _number,
}


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    return {
        "slow_step": record.slow_step,
        "best_value": record.best_value,
        "network_output": list(record.network_output),
        "parameter_snapshot": dict(record.parameter_snapshot),
        "wall_clock_ms": record.wall_clock_ms,
    }


def record_from_dict(data: Any, where: str = "record line") -> RunRecord:
    if not isinstance(data, dict):
        raise RecordIoError(f"{where} is not an object: {data!r}")
    missing = [k for k in _RECORD_KINDS if k not in data]
    if missing:
        raise RecordIoError(f"{where} is missing keys {missing}")
    extra = [k for k in data if k not in _RECORD_KINDS]
    if extra:
        raise RecordIoError(f"{where} has unknown keys {extra}")
    wrong = [k for k, is_kind in _RECORD_KINDS.items() if not is_kind(data[k])]
    if wrong:
        raise RecordIoError(f"{where} has values of the wrong kind for {wrong}")
    return RunRecord(
        slow_step=int(data["slow_step"]),
        best_value=None if data["best_value"] is None else float(data["best_value"]),
        network_output=[float(v) for v in data["network_output"]],
        parameter_snapshot={k: float(v) for k, v in data["parameter_snapshot"].items()},
        wall_clock_ms=float(data["wall_clock_ms"]),
    )


# one encoder for every line, as json.dumps with keywords builds a new one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
# the number kinds whose equal values print alike, but for the sign of a zero
_PLAIN = frozenset((int, float, bool))


def _dump(data: Any) -> str:
    try:
        return _ENCODER.encode(data)
    except ValueError as exc:
        raise RecordIoError(f"record is not strict-JSON serializable: {exc}") from None


class RecordEncoder:
    """Each call returns one record's line, json.dumps(record_to_dict(record),
    separators=(",", ":"), allow_nan=False) byte for byte, reusing the last
    network_output text while the output prints alike."""

    def __init__(self) -> None:
        # the last output encoded, its element types (None unless all plain) and its text
        self._output: list = []
        self._types: list | None = None
        self._text = ""

    def __call__(self, record: RunRecord) -> str:
        output = list(record.network_output)
        types = list(map(type, output))
        if not (
            types == self._types
            and output == self._output
            and (0 not in output or all(
                math.copysign(1.0, a) == math.copysign(1.0, b)
                for a, b in zip(output, self._output)
                if a == 0
            ))
        ):
            self._text = _dump(output)
            self._output = output
            self._types = types if _PLAIN.issuperset(types) else None
        # the keys before the output and those after it, each encoded as one object
        head = _dump({"slow_step": record.slow_step, "best_value": record.best_value})
        tail = _dump({
            "parameter_snapshot": dict(record.parameter_snapshot),
            "wall_clock_ms": record.wall_clock_ms,
        })
        return f'{head[:-1]},"network_output":{self._text},{tail[1:]}'


def write_run_file(path: str, config: dict[str, Any], records: Iterable[RunRecord]) -> None:
    """Write the header line and one line per record to <path>.tmp, then move
    it onto path: a failed write leaves any earlier file at path as it was."""
    lines = [_dump({"config": config})]
    lines.extend(map(RecordEncoder(), records))
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


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a strict-JSON number")


# write_run_file writes strict JSON, so a line holding NaN, Infinity or -Infinity is refused;
# one shared decoder, as json.loads with a keyword builds a new one per call
_STRICT_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


def read_run_file(path: str) -> tuple[dict[str, Any], list[RunRecord]]:
    try:
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordIoError(f"cannot read record file {path}: {exc}") from None
    if not lines:
        raise RecordIoError(f"record file {path} is empty")
    parsed = []
    for number, line in enumerate(lines, start=1):
        try:
            parsed.append(_STRICT_JSON.decode(line))
        except ValueError as exc:  # a JSONDecodeError, too, is a ValueError
            raise RecordIoError(f"{path}:{number}: invalid JSON: {exc}") from None
    header = parsed[0]
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
        raise RecordIoError(f"{path}:1: expected a header line with a config object")
    return header["config"], [
        record_from_dict(data, f"{path}:{number}: record line")
        for number, data in enumerate(parsed[1:], start=2)
    ]


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


def summarize(paths: Sequence[str]) -> list[dict[str, Any]]:
    """One summary row per record file, in sorted path order; a header with
    no architecture key reads "unknown"."""
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
                "architecture": str(config.get("architecture") or "unknown"),
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
