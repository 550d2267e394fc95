"""Cross-architecture composition: a particle swarm trains a feedforward net.

The swarm searches weight space directly: each particle's position is
the network's flat parameter vector (every edge weight, then every
non-input bias), and the objective is batch mean squared error under
those parameters. Each fast step evaluates the whole swarm in one
stacked forward pass (ann.population_mse): the (particles, parameters)
position array is viewed as one weight matrix and one bias vector per
layer and particle, so no particle's vector is copied into the network.
The trained network is returned with the global-best vector installed
as its layer arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .ann import AnnParams, build_ann, population_mse, set_weight_vector
from .core import ComputingNetwork, RunRecord, ScaleSchedule, run
from .problems import Dataset, Objective
from .pso import PsoParams, build_pso_network, global_best
from .rng import RngStream

# the box every weight of the swarm's particles starts in and stays in
WEIGHT_BOUNDS = (-2.0, 2.0)


@dataclass
class CrossResult:
    network: ComputingNetwork
    weights: np.ndarray
    mse: float
    records: list[RunRecord] = field(default_factory=list)


def cross_train(
    dataset: Dataset,
    layer_sizes: Sequence[int],
    rng: RngStream,
    *,
    iterations: int = 300,
    pso_params: PsoParams | None = None,
    weight_bounds: tuple[float, float] = WEIGHT_BOUNDS,
    ann_params: AnnParams | None = None,
) -> CrossResult:
    """Train the network's weights by swarm search over flat vectors.

    ann_params gives the network's activations; the swarm, not gradient
    descent, trains it, so its learning rate goes unused.
    """
    template = build_ann(layer_sizes, dataset, rng, ann_params)
    lo, hi = weight_bounds
    objective = Objective(
        name="ann-batch-mse",
        dimension=template.topology.parameter_count,
        lower=float(lo),
        upper=float(hi),
        fn=partial(population_mse, template, dataset),
    )
    swarm = build_pso_network(objective, rng, pso_params)
    schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=iterations)
    records = run(swarm, schedule, rng)
    best_position, best_value = global_best(swarm)
    set_weight_vector(template, best_position)
    return CrossResult(
        network=template,
        weights=best_position.copy(),
        mse=best_value,
        records=records,
    )
