"""Payload-per-particle reference form of cnets.pso, kept as a test oracle.

One Python object per particle (position, velocity, value and personal
best) and one per neighborhood hyperedge (the cached best); a ring
neighborhood holds every particle within one hop. Evaluation,
the neighborhood refresh and the move visit one particle or one edge at
a time, and every particle draws its own random vectors. The
array-resident swarm must give the same state and random draws, bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cnets.errors import ConfigurationError, NumericDivergenceError
from cnets.problems import Objective
from cnets.pso import PsoParams
from cnets.rng import RngStream


@dataclass
class ParticlePayload:
    """One particle's kinematic state and personal best."""

    position: np.ndarray
    velocity: np.ndarray
    value: float
    best_position: np.ndarray
    best_value: float


@dataclass
class NeighborhoodPayload:
    """Cached best over the member particles' personal bests."""

    best_position: np.ndarray
    best_value: float


def ring_distance(n: int, i: int, j: int) -> int:
    """Hop count between two indices on a ring of n positions."""
    if n < 1:
        raise ConfigurationError(f"ring needs >= 1 position, got {n}")
    forward = (j - i) % n
    return min(forward, n - forward)


def neighborhood_members(params: PsoParams) -> list[tuple[int, ...]]:
    n = params.particles
    if params.topology == "ring":
        return [
            tuple(j for j in range(n) if ring_distance(n, i, j) <= 1) for i in range(n)
        ]
    if params.topology == "global":
        return [tuple(range(n))] * n
    return [tuple(sorted(set(members))) for members in params.neighborhoods]


@dataclass
class OracleNode:
    id: int
    payload: ParticlePayload


@dataclass
class OracleEdge:
    id: int
    endpoints: tuple[int, ...]
    directed: bool
    payload: NeighborhoodPayload


class OracleSwarm:
    """The swarm's parameters and the particle-to-hyperedge map."""

    def __init__(self, objective: Objective, params: PsoParams):
        self.problem = objective
        self.params = params
        # particle id -> id of the hyperedge holding its neighborhood
        self.edge_of_particle: dict[int, int] = {}


@dataclass
class OracleNet:
    arch: OracleSwarm
    nodes: list[OracleNode]
    edges: list[OracleEdge]


def evaluate(net: OracleNet, objective: Objective) -> None:
    """Evaluate every particle and update personal bests (strict improvement)."""
    for node in net.nodes:
        p = node.payload
        value = objective(p.position)
        if not math.isfinite(value):
            raise NumericDivergenceError(
                f"particle {node.id} produced non-finite value {value!r}"
            )
        p.value = value
        if value < p.best_value:
            p.best_value = value
            p.best_position = p.position.copy()


def neighborhood_best(
    net: OracleNet, members: Sequence[int]
) -> tuple[np.ndarray, float]:
    """Best personal best among the members; ties go to the lowest id."""
    best = min(members, key=lambda i: (net.nodes[i].payload.best_value, i))
    p = net.nodes[best].payload
    return p.best_position.copy(), p.best_value


def refresh_neighborhoods(net: OracleNet) -> None:
    for edge in net.edges:
        position, value = neighborhood_best(net, edge.endpoints)
        edge.payload.best_position = position
        edge.payload.best_value = value


def move(net: OracleNet, params: PsoParams, rng: RngStream) -> None:
    """One velocity-position update for every particle, in id order.

    Each particle draws two fresh uniform vectors (cognitive then
    social), one component per dimension.
    """
    for node in net.nodes:
        p = node.payload
        d = p.position.size
        r_cognitive = rng.uniform(0.0, 1.0, size=d)
        r_social = rng.uniform(0.0, 1.0, size=d)
        local = net.edges[net.arch.edge_of_particle[node.id]].payload
        velocity = (
            params.inertia * p.velocity
            + params.cognitive * r_cognitive * (p.best_position - p.position)
            + params.social * r_social * (local.best_position - p.position)
        )
        if params.velocity_clamp > 0.0:
            velocity = np.clip(velocity, -params.velocity_clamp, params.velocity_clamp)
        p.velocity = velocity
        p.position = p.position + velocity


def global_best(net: OracleNet) -> tuple[np.ndarray, float]:
    """Best personal best across the whole swarm; ties to the lowest id."""
    return neighborhood_best(net, range(len(net.nodes)))


def build_pso_network(
    objective: Objective, rng: RngStream, params: PsoParams
) -> OracleNet:
    """Swarm over the objective's box, personal bests seeded by evaluation.

    For each particle in id order: one position vector uniform in the
    box, then one velocity vector uniform in +/- (box width / 10).
    Particles sharing an identical neighborhood share one hyperedge.
    """
    d = objective.dimension
    lo, hi = objective.lower, objective.upper
    vspan = (hi - lo) / 10.0
    nodes = []
    for i in range(params.particles):
        position = rng.uniform(lo, hi, size=d)
        velocity = rng.uniform(-vspan, vspan, size=d)
        nodes.append(
            OracleNode(
                id=i,
                payload=ParticlePayload(
                    position=position,
                    velocity=velocity,
                    value=float("inf"),
                    best_position=position.copy(),
                    best_value=float("inf"),
                ),
            )
        )
    arch = OracleSwarm(objective, params)
    edges = []
    edge_by_members: dict[tuple[int, ...], int] = {}
    for i, members in enumerate(neighborhood_members(params)):
        if members not in edge_by_members:
            edge_by_members[members] = len(edges)
            edges.append(
                OracleEdge(
                    id=len(edges),
                    endpoints=members,
                    directed=False,
                    payload=NeighborhoodPayload(
                        best_position=np.zeros(d), best_value=float("inf")
                    ),
                )
            )
        arch.edge_of_particle[i] = edge_by_members[members]
    net = OracleNet(arch=arch, nodes=nodes, edges=edges)
    evaluate(net, objective)
    refresh_neighborhoods(net)
    return net
