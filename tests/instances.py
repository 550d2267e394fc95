"""Problem instances and a config writer that tests share; no run reads them."""
from __future__ import annotations

import json

from cnets.config import RunConfig
from cnets.problems import Dataset, TourGraph
from cnets.rng import RngStream


def xor_dataset() -> Dataset:
    """The 2-input XOR truth table with targets in {0, 1}."""
    return Dataset(
        inputs=[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
        targets=[(0.0,), (1.0,), (1.0,), (0.0,)],
    )


def random_euclidean(n: int, rng: RngStream, box: float = 100.0) -> TourGraph:
    """n points drawn uniformly in the box, x then y for each point in turn."""
    coords = [(rng.uniform(0.0, box), rng.uniform(0.0, box)) for _ in range(n)]
    return TourGraph.from_coordinates(coords)


def write_config(config: RunConfig, path: str) -> None:
    """Write the fully resolved form; load_config(path) then round-trips."""
    with open(path, "w") as handle:
        json.dump(config.to_dict(), handle, indent=2)
        handle.write("\n")
