#!/usr/bin/env python3
"""Benchmark a change against its parent, alternating, and write BENCH_<n>.json.

Usage, from the repository root, with the parent commit checked out
somewhere else (any checkout works, for example):

    git worktree add ../parent HEAD~1     # or: git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/bench_pair.py --parent ../parent --out BENCH_8.json \\
        --pairs meta-colony=5 --pairs tsp-colony=3 --pairs backprop=3 --pairs swarm-net=3

Each pair runs `perfbench/run.py --trace 0` once in the parent checkout
and once in this working tree, one after the other, on the same seed;
which side goes first alternates from pair to pair, so a machine that
drifts in speed favours neither. Pair k of a workload uses seed
--first-seed + k. The file records the Python and numpy versions and
nproc, then per workload and end-to-end metric the min, median and
quartile spread of each side and the number of pairs the change won
(strictly better, in the direction BENCHMARK.json gives), with two
verdicts: `gain_met` (the change won at least 9/10 of the pairs and its
median is better than the parent's by more than the parent's IQR) and
`within_bound` (the change's median is worse than the parent's by no
more than the metric's relative bound in BENCHMARK.json). It also records,
per workload and side, each untraced run's minor page faults per
operation: the growth of this process's RUSAGE_CHILDREN ru_minflt across
the run, divided by the operations perfbench reports.

After a workload's pairs, `perfbench/run.py --trace 1` runs once per side
on the first pair's seed, parent first; the `per_layer` section holds,
per workload, that seed and each side's per-layer metrics (the names
BENCHMARK.json lists under per_layer) and whether its records were correct.
If any run, traced or not, reports incorrect records, the file is still
written, and the script then names each such run and exits with status 1.

It then times every configs/*.json in process on both sides, alternating
in the same way for CONFIG_ROUNDS rounds. A round is one Python process
per side that runs each config once to warm up and once timed, from
load_config to the written record file; the `configs` section holds each
side's min and median seconds per config.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CONFIG_ROUNDS = 5
CONFIG_TIMER = """
import dataclasses, glob, json, os, tempfile, time
from cnets.config import load_config
from cnets.harness import execute

seconds = {}
with tempfile.TemporaryDirectory() as out:
    for timed in (False, True):
        for path in sorted(glob.glob("configs/*.json")):
            started = time.perf_counter()
            config = dataclasses.replace(load_config(path), out=os.path.join(out, "run.jsonl"))
            execute(config)
            if timed:
                seconds[os.path.basename(path)] = time.perf_counter() - started
print(json.dumps(seconds))
"""


def perfbench(
    checkout: str, workload: str, seed: int, seconds: float, trace: int = 0
) -> tuple[dict, dict, float]:
    """One `perfbench/run.py` run: its info line, its result line and the
    minor page faults it took."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info["perfbench"], result, faults


def time_configs(checkout: str) -> dict[str, float]:
    """Seconds per example config, timed in one Python process in the checkout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    command = [sys.executable, "-c", CONFIG_TIMER]
    done = subprocess.run(
        command, cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare_configs(checkouts: dict[str, str]) -> dict:
    """Per config present on both sides: each side's min and median seconds."""
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    for k in range(CONFIG_ROUNDS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(time_configs(checkouts[side]))
            print(f"configs round {k} {side}: " + json.dumps(runs[side][-1]),
                  file=sys.stderr, flush=True)
    names = sorted(set(runs["parent"][0]) & set(runs["change"][0]))
    seconds = {
        name: {
            side: {
                "min": min(r[name] for r in runs[side]),
                "median": statistics.median(r[name] for r in runs[side]),
            }
            for side in SIDES
        }
        for name in names
    }
    return {"rounds": CONFIG_ROUNDS, "unit": "s", "seconds": seconds}


def spread(values: list[float]) -> dict[str, float]:
    """Min, median and the quartiles (inclusive method) of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdicts(entry: dict, pairs: int, bound: float) -> dict[str, bool]:
    """gain_met and within_bound of one metric's entry, as the module docstring defines them."""
    sign = 1.0 if entry["better"] == "higher" else -1.0
    parent, change = entry["parent"], entry["change"]
    gain = sign * (change["median"] - parent["median"])
    return {
        "gain_met": 10 * entry["change_wins"] >= 9 * pairs and gain > parent["iqr"],
        "within_bound": -gain <= bound * abs(parent["median"]),
    }


def compare(runs: dict[str, list[dict]], metrics_spec: dict[str, dict]) -> dict:
    """Per metric: each side's spread, the pairs the change won and the verdicts."""
    metrics = {}
    for name, spec in metrics_spec.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        entry = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "better": spec["better"],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins,
            "median_ratio": (
                statistics.median(values["change"]) / statistics.median(values["parent"])
                if statistics.median(values["parent"]) else None
            ),
        }
        metrics[name] = {**entry, **verdicts(entry, len(values["parent"]), spec["bound"])}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument(
        "--pairs", action="append", required=True, metavar="WORKLOAD=N",
        help="run N alternating pairs of WORKLOAD; repeat for more workloads",
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench --seconds per run")
    parser.add_argument("--first-seed", type=int, default=11)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics_spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report: dict = {"seconds_per_run": args.seconds, "workloads": {}, "per_layer": {}}
    incorrect: list[str] = []  # the runs whose records failed perfbench's checks
    for spec in args.pairs:
        workload, count = spec.split("=")
        if int(count) < 2:
            parser.error(f"--pairs {spec}: quartiles need at least 2 pairs")
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        faults: dict[str, list[float]] = {side: [] for side in SIDES}
        seeds = [args.first_seed + k for k in range(int(count))]
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                info, result, minor_faults = perfbench(checkouts[side], workload, seed, args.seconds)
                per_operation = minor_faults / info["operations"]
                runs[side].append(result)
                faults[side].append(per_operation)
                if not result["correct"]:
                    incorrect.append(f"{workload} {side} seed {seed}")
                report.setdefault("python", info["python"])
                report.setdefault("numpy", info["numpy"])
                report.setdefault("nproc", info["nproc"])
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps({m: round(v["value"], 6) for m, v in result["metrics"].items()})
                      + f" minor faults/operation {per_operation:.1f}",
                      file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "all_correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "metrics": compare(runs, metrics_spec),
            "minor_faults_per_operation": faults,
        }
        layers: dict = {"seed": seeds[0]}
        for side in SIDES:
            _, result, _ = perfbench(checkouts[side], workload, seeds[0], args.seconds, trace=1)
            if not result["correct"]:
                incorrect.append(f"{workload} {side} seed {seeds[0]} --trace 1")
            layers[side] = {
                "correct": result["correct"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
            print(f"{workload} seed {seeds[0]} {side} --trace 1: correct {result['correct']}",
                  file=sys.stderr, flush=True)
        report["per_layer"][workload] = layers
    report["configs"] = compare_configs(checkouts)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for run in incorrect:
        print(f"incorrect records: {run}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
