"""The benchmark workloads reproduce their pinned record lines.

Each workload of perfbench/workloads.py is generated at seed 1 and run
once through build_config + execute. The SHA-256 of its record lines
(records.comparable_bytes without the header, whose config echoes the
input paths) must equal the digest in workload_digests.json. This pins
shapes the example configs do not reach: a 4-8-1 network on 64
samples trained by a swarm, a 16-64-64-4 network and 100 cities.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from cnets.config import build_config
from cnets.harness import execute
from cnets.records import comparable_bytes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

DIGESTS = Path(__file__).with_name("workload_digests.json")


def record_digest(name: str, directory: Path) -> str:
    data = workloads.make_inputs(name, 1, str(directory))
    data["out"] = str(directory / data["out"])
    execute(build_config(data, base_dir=str(directory)))
    lines = comparable_bytes(data["out"]).split(b"\n", 1)[1]
    return hashlib.sha256(lines).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reproduces_pinned_records(name, tmp_path):
    assert record_digest(name, tmp_path) == json.loads(DIGESTS.read_text())[name]
