"""The plain form of cnets.records' writer, kept as a test oracle.

Every line is one json.dumps call on a fresh dict, the header's and each
record's, with the separators and strictness the record format fixes.
The writer, which reuses an output's text while it prints alike, must
give these bytes.
"""
from __future__ import annotations

import json
from typing import Any, Sequence

from cnets.core import RunRecord
from cnets.records import record_to_dict


def line(data: Any) -> str:
    return json.dumps(data, separators=(",", ":"), allow_nan=False)


def run_file_text(config: dict[str, Any], records: Sequence[RunRecord]) -> str:
    lines = [line({"config": config}), *(line(record_to_dict(r)) for r in records)]
    return "\n".join(lines) + "\n"
