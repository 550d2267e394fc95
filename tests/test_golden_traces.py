"""Every example config reproduces its committed record file.

The committed runs/*.jsonl are the reference traces. Their header lines
echo absolute input and output paths from the machine that wrote them,
so headers are compared with those paths cut to their file names, and
record lines after records.comparable_bytes has dropped the wall-clock
column.
"""
import json
import os
from pathlib import Path

import pytest

from cnets.config import build_config
from cnets.harness import execute
from cnets.records import comparable_bytes

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


PATH_KEYS = ("out", "graph", "dataset")


def record_lines(path: Path) -> list[bytes]:
    return comparable_bytes(str(path)).splitlines()[1:]


def header(path: Path) -> str:
    """The resolved-config echo, key order kept, with paths cut to file names."""

    def cut(node):
        if not isinstance(node, dict):
            return node
        return {
            key: os.path.basename(value) if key in PATH_KEYS and value else cut(value)
            for key, value in node.items()
        }

    with open(path) as handle:
        return json.dumps(cut(json.loads(handle.readline())))


def test_every_config_has_a_committed_trace():
    assert CONFIGS
    assert all((ROOT / "runs" / f"{c.stem}.jsonl").exists() for c in CONFIGS)


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_committed_records(config_path, tmp_path):
    data = json.loads(config_path.read_text())
    data["out"] = str(tmp_path / f"{config_path.stem}.jsonl")
    execute(build_config(data, base_dir=str(config_path.parent)))
    committed = ROOT / "runs" / f"{config_path.stem}.jsonl"
    assert header(Path(data["out"])) == header(committed)
    assert record_lines(Path(data["out"])) == record_lines(committed)
