"""Cross-architecture composition: a particle swarm trains a feedforward net.

The swarm searches weight space directly: each particle's position is
the network's flat parameter vector (every edge weight, then every
non-input bias), and the objective is batch mean squared error with
those parameters installed. The trained network is returned with the
global-best vector installed as its layer arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ann import batch_mse, build_ann, set_weight_vector
from .core import ComputingNetwork, RunRecord, ScaleSchedule, run
from .errors import ConfigurationError
from .problems import Dataset, Objective
from .pso import PsoParams, build_pso_network, global_best
from .rng import RngStream


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
    weight_bounds: tuple[float, float] = (-2.0, 2.0),
    hidden_activation: str = "tanh",
    output_activation: str = "tanh",
    dimension: int | None = None,
) -> CrossResult:
    """Train the network's weights by swarm search over flat vectors.

    dimension, when given, must equal the network's parameter count; it
    exists so configs that state the dimension explicitly fail fast
    instead of silently searching the wrong space.
    """
    template = build_ann(
        layer_sizes,
        dataset,
        rng,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
    )
    expected = template.arch.topology.parameter_count
    if dimension is not None and dimension != expected:
        raise ConfigurationError(
            f"swarm dimension {dimension} does not match the network's "
            f"{expected} trainable parameters"
        )
    lo, hi = weight_bounds
    if not lo < hi:
        raise ConfigurationError(f"weight bounds need low < high, got [{lo}, {hi}]")

    def mse_at(vector: np.ndarray) -> float:
        set_weight_vector(template, vector)
        return batch_mse(template, dataset)

    objective = Objective(
        name="ann-batch-mse",
        dimension=expected,
        lower=float(lo),
        upper=float(hi),
        fn=mse_at,
    )
    swarm = build_pso_network(objective, rng, pso_params)
    schedule = ScaleSchedule(fast_steps_per_slow=1, slow_steps=iterations)
    records = run(swarm, schedule, objective, rng)
    best_position, best_value = global_best(swarm)
    set_weight_vector(template, best_position)
    return CrossResult(
        network=template,
        weights=best_position.copy(),
        mse=best_value,
        records=records,
    )
