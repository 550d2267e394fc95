#!/usr/bin/env python3
"""Compare per-cell vs whole-tape description lengths across CA rules.

For each rule the tape is run for a fixed number of steps and the record
trace is scored two ways: the sum of per-cell entropies (what you pay to
describe every cell on its own) and the joint entropy of whole tape
states. The gap between them, the interaction excess, is the information
the cells share; boring rules waste nothing because nothing varies,
chaotic rules share a lot.

Usage: python3 scripts/tape_information.py [--width 33] [--steps 200]
"""
import argparse

from cnets.analysis import (
    interaction_excess,
    network_scale_info,
    node_scale_info,
    trace_from_records,
)
from cnets.core import ScaleSchedule, run
from cnets.eca import build_eca_network
from cnets.problems import Tape
from cnets.rng import RngStream

RULES = (204, 90, 110, 30)  # identity, additive, complex, chaotic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=33)
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args(argv)

    schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=args.steps)
    print(f"{'rule':>4}  {'per-cell bits':>13}  {'joint bits':>10}  {'excess':>8}")
    for rule in RULES:
        tape = Tape.single_one(args.width, boundary="periodic")
        net = build_eca_network(tape, rule)
        records = run(net, schedule, RngStream(0))
        trace = trace_from_records(records, bins=2)
        node_bits = node_scale_info(trace)
        joint_bits = network_scale_info(trace)
        print(
            f"{rule:>4}  {node_bits:>13.2f}  {joint_bits:>10.2f}"
            f"  {interaction_excess(trace):>8.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
