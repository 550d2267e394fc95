#!/usr/bin/env python3
"""Run every example config and tabulate the resulting record files.

Usage: python3 scripts/run_examples.py
"""
import argparse
import pathlib
import sys

from cnets.cli import main as cnets

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
RUNS = CONFIGS.parent / "runs"

ORDER = (
    "eca_rule110.json",
    "ann_xor.json",
    "aco_cities5.json",
    "pso_sphere.json",
    "cross_xor.json",
    "meta_aco.json",
)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for name in ORDER:
        print(f"== {name}", flush=True)
        code = cnets(["run", str(CONFIGS / name)])
        if code != 0:
            print(f"{name} exited with {code}", file=sys.stderr)
            return code
    print("== summary", flush=True)
    return cnets(["summarize", str(RUNS / "*.jsonl")])


if __name__ == "__main__":
    raise SystemExit(main())
