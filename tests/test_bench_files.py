"""Committed BENCH_*.json files have the shape scripts/bench_pair.py writes.

Each file compares a change with its parent commit, run alternately on
one machine: per workload and end-to-end metric of BENCHMARK.json, each
side's min, median and quartiles, and the pairs the change won. From
BENCH_9.json on, a `configs` section also holds each side's min and
median seconds per example config, timed in process. From BENCH_10.json
on, a `per_layer` section holds each side's per-layer metrics from one
traced run per workload.
"""
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPREAD = {"min", "median", "q1", "q3", "iqr"}


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text())
    assert isinstance(bench["python"], str) and isinstance(bench["numpy"], str)
    assert isinstance(bench["nproc"], int) and bench["nproc"] >= 1
    assert bench["seconds_per_run"] > 0
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(bench["workloads"]) == workloads
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert pairs >= (5 if name == "meta-colony" else 3)
        assert len(workload["seeds"]) == pairs
        assert set(workload["all_correct"]) == {"parent", "change"}
        metrics = workload["metrics"]
        assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
        for metric in BENCHMARK["end_to_end"]:
            entry = metrics[metric["name"]]
            assert entry["better"] == metric["better"] and entry["unit"] == metric["unit"]
            assert 0 <= entry["change_wins"] <= pairs
            for side in ("parent", "change"):
                spread = entry[side]
                assert set(spread) == SPREAD
                assert spread["min"] <= spread["q1"] <= spread["median"] <= spread["q3"]
                assert spread["iqr"] == pytest.approx(spread["q3"] - spread["q1"])


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_configs_section(path):
    bench = json.loads(path.read_text())
    if int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1)) < 9:
        assert "configs" not in bench
        return
    configs = bench["configs"]
    assert configs["rounds"] >= 2 and configs["unit"] == "s"
    assert configs["seconds"]
    for name, sides in configs["seconds"].items():
        assert name.endswith(".json")
        assert set(sides) == {"parent", "change"}
        for side in sides.values():
            assert set(side) == {"min", "median"}
            assert 0 < side["min"] <= side["median"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_per_layer_section(path):
    bench = json.loads(path.read_text())
    if "per_layer" not in bench:
        assert int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1)) < 10
        return
    layers = bench["per_layer"]
    assert set(layers) == set(bench["workloads"])
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for name, workload in layers.items():
        assert workload["seed"] in bench["workloads"][name]["seeds"]
        for side in ("parent", "change"):
            assert isinstance(workload[side]["correct"], bool)
            metrics = workload[side]["metrics"]
            assert set(metrics) == names
            assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
