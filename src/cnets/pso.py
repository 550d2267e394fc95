"""Particle-swarm optimization with inertia weight.

Nodes are particles (position, velocity, personal best); every particle
belongs to one hyperedge listing its whole neighborhood, whose best
personal best guides it. The state lives on the network as
(particles, dimension) arrays, and the hyperedges are one padded array
of member ids, which is also the substrate's endpoint array. The fast
scale evaluates the whole swarm in one call of the objective and
updates personal bests; the slow scale refreshes neighborhood bests and
applies the velocity and position update to every particle at once.
Minimization throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComputingNetwork
from .errors import ConfigurationError, NumericDivergenceError
from .problems import Objective
from .rng import RngStream

TOPOLOGIES = ("ring", "global", "custom")


@dataclass
class PsoParams:
    """Swarm parameters; the usual constricted-inertia defaults.

    velocity_clamp 0 means unclamped; a positive value bounds each
    velocity component to [-clamp, clamp].
    """

    particles: int = 30
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    velocity_clamp: float = 0.0
    topology: str = "ring"
    neighborhoods: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for name in ("inertia", "cognitive", "social", "velocity_clamp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"must be finite, got {value}", key=name)
            if name != "inertia" and value < 0:
                raise ConfigurationError(f"must be >= 0, got {value}", key=name)
        if self.particles < 2:
            raise ConfigurationError(f"must be >= 2, got {self.particles}", key="particles")
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"must be one of {TOPOLOGIES}, got {self.topology!r}", key="topology"
            )
        if self.topology == "custom":
            if not self.neighborhoods:
                raise ConfigurationError("a custom topology needs them", key="neighborhoods")
            if len(self.neighborhoods) != self.particles:
                raise ConfigurationError(
                    f"need one per particle ({self.particles}), got {len(self.neighborhoods)}",
                    key="neighborhoods",
                )
            for i, members in enumerate(self.neighborhoods):
                if i not in members:
                    raise ConfigurationError(
                        f"particle {i} must belong to its own neighborhood", key="neighborhoods"
                    )
                if len(set(members)) < 2:
                    raise ConfigurationError(
                        f"neighborhood of particle {i} needs >= 2 distinct members",
                        key="neighborhoods",
                    )
                bad = [m for m in members if not 0 <= m < self.particles]
                if bad:
                    raise ConfigurationError(
                        f"neighborhood of particle {i} has unknown members {bad}",
                        key="neighborhoods",
                    )
        elif self.neighborhoods is not None:
            raise ConfigurationError(
                "explicit neighborhoods require the custom topology", key="neighborhoods"
            )


def _neighborhood_members(params: PsoParams) -> list[tuple[int, ...]]:
    """Each particle's neighborhood, ascending; on a ring, itself and its two neighbors."""
    n = params.particles
    if params.topology == "ring":
        return [tuple(sorted({(i - 1) % n, i, (i + 1) % n})) for i in range(n)]
    if params.topology == "global":
        return [tuple(range(n))] * n
    assert params.neighborhoods is not None
    return [tuple(sorted(set(members))) for members in params.neighborhoods]


def evaluate(net: PsoArchitecture, objective: Objective) -> None:
    """Evaluate every particle and update personal bests (strict improvement)."""
    values = np.asarray(objective.fn(net.positions), dtype=float)
    if values.shape != net.best_values.shape:
        raise ConfigurationError(
            f"objective {objective.name!r} returned shape {values.shape} "
            f"for {len(net.positions)} particles"
        )
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise NumericDivergenceError(
            f"particle {i} produced non-finite value {float(values[i])!r}"
        )
    better = values < net.best_values
    net.best_values = np.where(better, values, net.best_values)
    net.best_positions = np.where(better[:, None], net.positions, net.best_positions)


def refresh_neighborhoods(net: PsoArchitecture) -> None:
    """Cache each hyperedge's best personal best; ties go to the lowest id."""
    members = net.members
    winners = members[np.arange(len(members)), net.best_values[members].argmin(axis=1)]
    net.neighborhood_bests = net.best_positions[winners]


def move(net: PsoArchitecture, params: PsoParams, rng: RngStream) -> None:
    """One velocity-position update for every particle.

    The draws are those of a per-particle loop in id order, each
    particle taking a cognitive and then a social uniform vector.
    """
    r = rng.uniform(0.0, 1.0, size=(len(net.positions), 2, net.positions.shape[1]))
    local = net.neighborhood_bests[net.edge_of_particle]
    velocities = (
        params.inertia * net.velocities
        + params.cognitive * r[:, 0] * (net.best_positions - net.positions)
        + params.social * r[:, 1] * (local - net.positions)
    )
    if params.velocity_clamp > 0.0:
        velocities = np.clip(velocities, -params.velocity_clamp, params.velocity_clamp)
    net.velocities = velocities
    net.positions = net.positions + velocities


def global_best(net: PsoArchitecture) -> tuple[np.ndarray, float]:
    """Best personal best across the whole swarm; ties to the lowest id."""
    i = int(net.best_values.argmin())
    return net.best_positions[i].copy(), float(net.best_values[i])


class PsoArchitecture(ComputingNetwork):
    """Swarm behaviour: fast = evaluate, slow = refresh neighborhoods and move.

    Row i of positions, velocities and best_positions, and entry i of
    best_values, are particle i's: the only copy of its state.
    Particles with identical neighborhoods share hyperedge k, whose
    members are members[k], ascending, padded by repeating the last one;
    neighborhood_bests[k] caches its best position.
    """

    kind = "pso"
    allow_hyperedges = True
    directed = False

    def __init__(
        self,
        objective: Objective,
        params: PsoParams,
        positions: np.ndarray,
        velocities: np.ndarray,
    ):
        self.problem = objective
        self.params = params
        edge_of: dict[tuple[int, ...], int] = {}
        self.edge_of_particle = np.array(
            [edge_of.setdefault(m, len(edge_of)) for m in _neighborhood_members(params)]
        )
        width = max(map(len, edge_of))
        self.members = np.array([m + m[-1:] * (width - len(m)) for m in edge_of])
        self.positions = positions
        self.velocities = velocities
        self.best_positions = positions.copy()
        self.best_values = np.full(len(positions), np.inf)
        self.neighborhood_bests = np.zeros((len(self.members), positions.shape[1]))

    def substrate(self) -> tuple[int, np.ndarray]:
        """Particles in id order and one hyperedge per distinct neighborhood."""
        return len(self.positions), self.members

    def fast(self, rng: RngStream) -> None:
        evaluate(self, self.problem)

    def readout(self) -> list[float]:
        position, _ = global_best(self)
        return position.tolist()

    def slow(self, rng: RngStream) -> None:
        refresh_neighborhoods(self)
        move(self, self.params, rng)

    def best_value(self) -> float | None:
        _, value = global_best(self)
        return value

    def parameters(self) -> dict[str, float]:
        p = self.params
        return {
            "inertia": float(p.inertia),
            "cognitive": float(p.cognitive),
            "social": float(p.social),
            "velocity_clamp": float(p.velocity_clamp),
            "particles": float(p.particles),
        }


def build_pso_network(
    objective: Objective, rng: RngStream, params: PsoParams | None = None
) -> PsoArchitecture:
    """Swarm over the objective's box, personal bests seeded by evaluation.

    Draw order is fixed: for each particle in id order, one position
    vector uniform in the box, then one velocity vector uniform in
    +/- (box width / 10) per dimension; one call draws them all.
    """
    params = params or PsoParams()
    lo, hi = objective.lower, objective.upper
    vspan = (hi - lo) / 10.0
    draws = rng.uniform(
        [[lo], [-vspan]], [[hi], [vspan]], size=(params.particles, 2, objective.dimension)
    )
    net = PsoArchitecture(
        objective, params, np.ascontiguousarray(draws[:, 0]), np.ascontiguousarray(draws[:, 1])
    )
    evaluate(net, objective)
    refresh_neighborhoods(net)
    return net
