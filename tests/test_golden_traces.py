"""Every example config reproduces its committed record file.

The committed runs/*.jsonl are the reference traces. Their header lines
echo absolute input paths from the machine that wrote them, so only the
record lines are compared, after records.comparable_bytes has dropped
the wall-clock column.
"""
import json
from pathlib import Path

import pytest

from cnets.config import build_config
from cnets.harness import execute
from cnets.records import comparable_bytes

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def record_lines(path: Path) -> list[bytes]:
    return comparable_bytes(str(path)).splitlines()[1:]


def test_every_config_has_a_committed_trace():
    assert CONFIGS
    assert all((ROOT / "runs" / f"{c.stem}.jsonl").exists() for c in CONFIGS)


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_committed_records(config_path, tmp_path):
    data = json.loads(config_path.read_text())
    data["out"] = str(tmp_path / f"{config_path.stem}.jsonl")
    execute(build_config(data, base_dir=str(config_path.parent)))
    assert record_lines(Path(data["out"])) == record_lines(ROOT / "runs" / f"{config_path.stem}.jsonl")
