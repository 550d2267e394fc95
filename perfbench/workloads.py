"""The benchmark's four workloads: seeded inputs, configs and output checks.

Every input a workload needs is generated from the workload seed and
written to a directory the caller owns (CSV files plus one config dict),
so the program under test sees nothing but files and a config, exactly as
`cnets run` would. Record files go to the same directory, never to the
repository's committed runs/.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from cnets import records
from cnets.errors import CnError
from cnets.problems import TourGraph


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    # layers of src/cnets the traced run must see at least once
    layers: tuple[str, ...]
    # best_value must never rise along the records (else: must be finite)
    monotone: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "meta-colony",
            ("config", "harness", "core", "aco", "meta", "records", "rng"),
            True,
        ),
        Workload(
            "tsp-colony",
            ("config", "harness", "core", "aco", "records", "rng"),
            True,
        ),
        Workload(
            "backprop",
            ("config", "harness", "core", "ann", "records", "rng"),
            False,
        ),
        Workload(
            "swarm-net",
            ("config", "harness", "core", "ann", "pso", "cross", "records", "rng"),
            True,
        ),
    )
}

# Problem sizes and run lengths. One execute takes one to a few seconds
# on a 2-CPU machine, so a run of tens of seconds times several of them.
META_CITIES = 8
META_GENERATIONS = 2
TSP_CITIES = 100
TSP_SLOW_STEPS = 16
BACKPROP_LAYERS = (16, 64, 64, 4)
BACKPROP_SAMPLES = 256
BACKPROP_SLOW_STEPS = 150
SWARM_LAYERS = (4, 8, 1)
SWARM_SAMPLES = 64
SWARM_SLOW_STEPS = 300
# teacher targets peak at TEACHER_SCALE, inside the tanh output range
TEACHER_SCALE = 0.5

CITIES_FILE = "cities.csv"
DATASET_FILE = "teacher.csv"


def _generator(name: str, seed: int) -> np.random.Generator:
    """Input generator, independent of the program's own RngStream."""
    return np.random.default_rng([list(WORKLOADS).index(name), seed])


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    # repr round-trips a double, so a seed gives byte-identical files
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _optimal_tour_length(points: np.ndarray) -> float:
    """Brute force over every closed tour through city 0; small n only."""
    n = len(points)
    cost = np.linalg.norm(points[:, None] - points[None], axis=-1)
    best = math.inf
    for rest in itertools.permutations(range(1, n)):
        if rest[0] < rest[-1]:  # each tour once, not also reversed
            tour = (0,) + rest
            best = min(best, sum(cost[tour[k - 1], tour[k]] for k in range(n)))
    return best


def _write_cities(path: str, gen: np.random.Generator, n: int, *, scale_to_optimum: bool) -> None:
    """Uniform random cities in a 100 x 100 box.

    scale_to_optimum rescales the instance so its optimal tour is 100 per
    city. Small instances differ a lot in optimal length; rescaling leaves
    only the search's own quality in the final tour length.
    """
    points = gen.uniform(0.0, 100.0, size=(n, 2))
    if scale_to_optimum:
        points *= 100.0 * n / _optimal_tour_length(points)
    _write_csv(path, ["x", "y"], points)


def _write_teacher(path: str, gen: np.random.Generator, sizes: tuple[int, ...], samples: int) -> None:
    """Regression set labelled, without noise, by a random tanh network of the student's shape."""
    x = gen.uniform(-1.0, 1.0, size=(samples, sizes[0]))
    a = x
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = gen.normal(0.0, 1.5 / math.sqrt(fan_in), size=(fan_in, fan_out))
        a = np.tanh(a @ w + gen.normal(0.0, 0.2, size=fan_out))
    a = TEACHER_SCALE * a / np.max(np.abs(a), axis=0)
    header = [f"in{i}" for i in range(sizes[0])] + [f"out{i}" for i in range(sizes[-1])]
    _write_csv(path, header, np.hstack([x, a]))


def make_inputs(name: str, seed: int, directory: str) -> dict:
    """Write the workload's input files and return its config dict.

    File names in the dict are relative to directory, which is the
    base_dir to pass to config.build_config.
    """
    gen = _generator(name, seed)
    out = f"{name}.jsonl"
    if name == "meta-colony":
        _write_cities(os.path.join(directory, CITIES_FILE), gen, META_CITIES, scale_to_optimum=True)
        return {
            "aco": {"graph": CITIES_FILE},
            "meta": {
                "parameters": {
                    "alpha": [0.0, 4.0],
                    "beta": [0.0, 6.0],
                    "evaporation": [0.01, 0.99],
                },
                "population_size": 10,
                "generations": META_GENERATIONS,
                "inner_slow_steps": 30,
                "eval_seeds": [1, 2, 3, 4, 5],
            },
            "seed": seed,
            "out": out,
        }
    if name == "tsp-colony":
        _write_cities(os.path.join(directory, CITIES_FILE), gen, TSP_CITIES, scale_to_optimum=False)
        return {
            "aco": {"graph": CITIES_FILE, "ants": 10, "demon": "two-opt"},
            "schedule": {"fast_steps_per_slow": 1, "slow_steps": TSP_SLOW_STEPS},
            "seed": seed,
            "out": out,
        }
    if name == "backprop":
        _write_teacher(os.path.join(directory, DATASET_FILE), gen, BACKPROP_LAYERS, BACKPROP_SAMPLES)
        return {
            "ann": {"layers": list(BACKPROP_LAYERS), "dataset": DATASET_FILE, "learning_rate": 0.1},
            "schedule": {"fast_steps_per_slow": 4, "slow_steps": BACKPROP_SLOW_STEPS},
            "seed": seed,
            "out": out,
        }
    if name == "swarm-net":
        _write_teacher(os.path.join(directory, DATASET_FILE), gen, SWARM_LAYERS, SWARM_SAMPLES)
        return {
            "cross": {
                "ann": {"layers": list(SWARM_LAYERS), "dataset": DATASET_FILE},
                "pso": {"particles": 30, "topology": "ring"},
                "weight_bounds": [-2.0, 2.0],
            },
            "schedule": {"fast_steps_per_slow": 1, "slow_steps": SWARM_SLOW_STEPS},
            "seed": seed,
            "out": out,
        }
    raise ValueError(f"unknown workload {name!r}")


def expected_steps(data: dict) -> int:
    """Outer steps one execute must record after the snapshot."""
    if "meta" in data:
        return data["meta"]["generations"]
    return data["schedule"]["slow_steps"]


def check_run_file(name: str, path: str, steps: int, graph: TourGraph | None) -> list[str]:
    """Problems found in one record file; an empty list means it is correct.

    graph is the tour instance for tsp-colony, whose readout must be a
    permutation of its cities with a tour length equal to best_value.
    """
    try:
        _, recs = records.read_run_file(path)
    except (CnError, ValueError, TypeError, AttributeError) as exc:
        return [f"record file does not read back: {exc!r}"]
    problems = []
    got = [r.slow_step for r in recs]
    if got != list(range(steps + 1)):
        problems.append(f"slow_step runs {got[:3]}..{got[-3:]}, expected 0..{steps}")
    values = [r.best_value for r in recs]
    if WORKLOADS[name].monotone:
        # an ACO snapshot has no tour yet; every later value must exist
        seen = values[1:] if values and values[0] is None else values
        if any(v is None or not math.isfinite(v) for v in seen):
            problems.append("best_value missing or not finite")
        elif any(b > a for a, b in zip(seen, seen[1:])):
            problems.append("best_value increased")
    elif any(v is None or not math.isfinite(v) for v in values):
        problems.append("best_value missing or not finite")
    if graph is not None:
        for r in recs:
            if r.best_value is None:
                continue
            tour = [int(v) for v in r.network_output]
            if tour != r.network_output or sorted(tour) != list(range(graph.n)):
                problems.append(f"step {r.slow_step}: readout is not a permutation")
                continue
            if abs(graph.tour_length(tour) - r.best_value) > 1e-9:
                problems.append(f"step {r.slow_step}: tour length differs from best_value")
    return problems
