"""Committed BENCH_*.json files have the shape scripts/bench_pair.py writes.

Each file compares a change with its parent commit, run alternately on
one machine: per workload and end-to-end metric of BENCHMARK.json, each
side's min, median and quartiles, and the pairs the change won. From
BENCH_9.json on, a `configs` section also holds each side's min and
median seconds per example config, timed in process. From BENCH_10.json
on, a `per_layer` section holds each side's per-layer metrics from one
traced run per workload. From BENCH_15.json on, each workload also
holds each side's minor page faults per operation, one per untraced run
in seed order; earlier files may hold them. From BENCH_24.json on, each
workload's metric also holds two verdicts, which must follow from its
numbers: gain_met (the change won at least 9/10 of the pairs and beat
the parent's median by more than the parent's IQR) and within_bound
(the change's median is worse than the parent's by no more than the
metric's relative bound in BENCHMARK.json).
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


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_minor_faults(path):
    bench = json.loads(path.read_text())
    number = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    for workload in bench["workloads"].values():
        if "minor_faults_per_operation" not in workload:
            assert number < 15
            continue
        faults = workload["minor_faults_per_operation"]
        assert set(faults) == {"parent", "change"}
        for values in faults.values():
            assert len(values) == workload["pairs"]
            assert all(isinstance(v, (int, float)) and 0 <= v < math.inf for v in values)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_were_correct(path):
    bench = json.loads(path.read_text())
    for workload in bench["workloads"].values():
        assert workload["all_correct"] == {"parent": True, "change": True}
    for workload in bench.get("per_layer", {}).values():
        assert workload["parent"]["correct"] is True and workload["change"]["correct"] is True


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_verdicts(path):
    bench = json.loads(path.read_text())
    number = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload in bench["workloads"].values():
        for name, entry in workload["metrics"].items():
            if number < 24 and "gain_met" not in entry and "within_bound" not in entry:
                continue
            sign = 1.0 if entry["better"] == "higher" else -1.0
            parent = entry["parent"]
            gain = sign * (entry["change"]["median"] - parent["median"])
            won = 10 * entry["change_wins"] >= 9 * workload["pairs"]
            assert entry["gain_met"] is (won and gain > parent["iqr"])
            assert entry["within_bound"] is (-gain <= bounds[name] * abs(parent["median"]))
