"""Ant-colony optimization on closed-tour problems.

Nodes are locations and edges are trails. The colony's adjustable state
is one symmetric n x n pheromone array on the architecture; each trail's
fixed desirability is the reciprocal of its cost. Ants prefer trails by
pheromone**alpha * desirability**beta (``choice_info``), computed once
per iteration. The fast scale sends all ants on one complete tour in
lockstep: each step picks every ant's next location from a row-wise
cumulative sum over the locations it has not visited. The slow scale
evaporates and deposits pheromone, optionally after a local-search
demon (2-opt) improves the iteration's best tour.

Powers use Python's scalar ``**``: numpy's vectorised power rounds
differently from it on some builds. Sums, products and maxima are exact
IEEE operations, so the array forms give the same bits as a scalar walk.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import ComputingNetwork, EdgeState, NodeState
from .errors import (
    ConfigurationError,
    DeadEndError,
    MalformedInstanceError,
    NumericDivergenceError,
)
from .problems import TourGraph
from .rng import RngStream

# Construction restarts allowed per ant per iteration before giving up.
MAX_RESTARTS = 10

DEMON_CHOICES = ("off", "two-opt")


@dataclass
class AcoParams:
    """Colony parameters; defaults follow common Ant System practice."""

    alpha: float = 1.0
    beta: float = 2.0
    evaporation: float = 0.1
    deposit: float = 1.0
    ants: int = 10
    initial_pheromone: float = 1.0
    min_pheromone: float = 1e-9
    demon: str = "off"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("alpha and beta must be >= 0")
        if not 0.0 <= self.evaporation <= 1.0:
            raise ConfigurationError(
                f"evaporation must be in [0, 1], got {self.evaporation}"
            )
        if self.deposit <= 0:
            raise ConfigurationError(f"deposit must be positive, got {self.deposit}")
        if self.ants < 1:
            raise ConfigurationError(f"need >= 1 ant, got {self.ants}")
        if self.initial_pheromone <= 0:
            raise ConfigurationError("initial_pheromone must be positive")
        if self.min_pheromone <= 0:
            raise ConfigurationError("min_pheromone must be positive")
        if self.demon not in DEMON_CHOICES:
            raise ConfigurationError(
                f"demon must be one of {DEMON_CHOICES}, got {self.demon!r}"
            )


@lru_cache(maxsize=8)
def _trail_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every trail (i < j), in edge-id order; cached, as numpy
    builds them slower than a small colony builds the rest of its network."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class AcoArchitecture:
    """Colony behaviour: fast = construct tours, slow = pheromone update."""

    kind = "aco"
    input_arity = 0
    allow_hyperedges = False

    def __init__(self, graph: TourGraph, params: AcoParams):
        self.problem = graph
        self.params = params
        n = graph.n
        # pheromone[i, j] == pheromone[j, i] is trail (i, j); the diagonal is unused
        self.pheromone = np.full((n, n), float(params.initial_pheromone))
        self._upper = _trail_indices(n)
        self._desirability = (1.0 / graph.cost_matrix[self._upper]).tolist()
        self._eta_beta: tuple[float | None, np.ndarray] = (None, np.empty(0))
        self.best_path_found: list[int] | None = None
        self.best_length: float | None = None
        self._iteration_solutions: list[tuple[list[int], float]] = []

    def choice_info(self, params: AcoParams) -> np.ndarray:
        """pheromone**alpha * desirability**beta per trail; zero diagonal."""
        alpha, beta = params.alpha, params.beta
        if self._eta_beta[0] != beta:  # computed once per network
            self._eta_beta = (beta, np.array([eta**beta for eta in self._desirability]))
        upper = np.array([tau**alpha for tau in self.pheromone[self._upper].tolist()])
        out = np.zeros(self.pheromone.shape)
        out[self._upper] = upper * self._eta_beta[1]
        return out + out.T

    def substrate(self) -> tuple[list[NodeState], list[EdgeState]]:
        """One node per location and one undirected edge per trail, in edge-id order."""
        n = self.problem.n
        nodes = [NodeState(id=i, payload=None) for i in range(n)]
        edges = [
            EdgeState(id=k, endpoints=pair, directed=False, payload=None)
            for k, pair in enumerate(combinations(range(n), 2))
        ]
        return nodes, edges

    def check_problem(self, problem) -> None:
        if problem != self.problem:
            raise ConfigurationError("network was built for a different graph")

    def next_input(self, net, slow_index, fast_index) -> list[float]:
        return []

    def fast(self, net, inputs, rng: RngStream) -> None:
        self._iteration_solutions = construct_solutions(net, self.params, rng)
        for path, length in self._iteration_solutions:
            self._offer_best(path, length)

    def _offer_best(self, path: list[int], length: float) -> None:
        if self.best_length is None or length < self.best_length:
            self.best_length = length
            self.best_path_found = list(path)

    def readout(self, net) -> list[float]:
        if self.best_path_found is None:
            return []
        return [float(v) for v in self.best_path_found]

    def collect(self, net, outputs):
        return self._iteration_solutions

    def slow(self, net, feedback, rng: RngStream) -> None:
        solutions = list(feedback)
        evaporate(net, self.params.evaporation)
        if self.params.demon == "two-opt" and solutions:
            index = min(range(len(solutions)), key=lambda k: solutions[k][1])
            path, _ = solutions[index]
            improved = demon_local_search(path, self.problem)
            improved_length = self.problem.tour_length(improved)
            solutions[index] = (improved, improved_length)
            self._offer_best(improved, improved_length)
        deposit(net, solutions, self.params.deposit)

    def best_value(self, net) -> float | None:
        return self.best_length

    def parameters(self, net) -> dict[str, float]:
        p = self.params
        return {
            "alpha": float(p.alpha),
            "beta": float(p.beta),
            "evaporation": float(p.evaporation),
            "deposit": float(p.deposit),
            "ants": float(p.ants),
            "initial_pheromone": float(p.initial_pheromone),
            "min_pheromone": float(p.min_pheromone),
            "demon": 1.0 if p.demon == "two-opt" else 0.0,
        }


def next_locations(
    weights: np.ndarray, visited: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One lockstep move: each row's next location and whether it dead-ended.

    Row k samples an unvisited column with probability proportional to
    weights[k]: the first column whose running sum exceeds total * u,
    or the last unvisited column when rounding puts the threshold at the
    total. A row whose unvisited weights sum to zero dead-ends (it still
    gets that last unvisited column, so the walk stays well formed).
    """
    cumulative = np.where(visited, 0.0, weights).cumsum(axis=1)
    total = cumulative[:, -1]
    threshold = total * uniforms
    chosen = (cumulative > threshold[:, None]).argmax(axis=1)
    short = threshold >= total
    if not np.count_nonzero(short):
        return chosen, short
    chosen[short] = visited.shape[1] - 1 - (~visited[short, ::-1]).argmax(axis=1)
    return chosen, total <= 0.0


def _successors(tours: np.ndarray) -> np.ndarray:
    """Each tour's next location after every position, closing the loop."""
    return np.concatenate((tours[:, 1:], tours[:, :1]), axis=1)


def _walk(
    choice: np.ndarray, cost: np.ndarray, starts: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every ant from its start: (tours, lengths, dead-ended)."""
    ants, n = uniforms.shape[0], uniforms.shape[1] + 1
    rows = np.arange(ants)
    tours = np.empty((ants, n), dtype=np.intp)
    tours[:, 0] = here = starts
    visited = np.zeros((ants, n), dtype=bool)
    visited[rows, starts] = True
    dead = np.zeros(ants, dtype=bool)
    for step, u in enumerate(uniforms.T, start=1):
        here, stuck = next_locations(choice[here], visited, u)
        dead |= stuck
        visited[rows, here] = True
        tours[:, step] = here
    # cumsum adds left to right: the same sums as accumulating step by step
    lengths = cost[tours, _successors(tours)].cumsum(axis=1)[:, -1]
    return tours, lengths, dead


def construct_solutions(
    net: ComputingNetwork, params: AcoParams, rng: RngStream
) -> list[tuple[list[int], float]]:
    """Send every ant on one complete closed tour, all ants in lockstep.

    Each ant draws its start, then one uniform per move, in ant order.
    On a complete graph a walk dead-ends only when every remaining
    weight underflows to zero; such ants are re-walked from their start
    with fresh uniforms, at most MAX_RESTARTS times.
    """
    arch: AcoArchitecture = net.arch
    cost = arch.problem.cost_matrix
    n = len(cost)
    try:
        with np.errstate(over="raise"):
            choice = arch.choice_info(params)
            # nonnegative terms: no partial sum of a row exceeds the whole row's
            choice.cumsum(axis=1)
    except (OverflowError, FloatingPointError):
        raise NumericDivergenceError("transition weights overflow") from None
    starts = np.empty(params.ants, dtype=np.intp)
    uniforms = np.empty((params.ants, n - 1))
    for ant in range(params.ants):
        starts[ant] = rng.integers(0, n)
        uniforms[ant] = rng.uniform(size=n - 1)
    tours, lengths, dead = _walk(choice, cost, starts, uniforms)
    for _ in range(MAX_RESTARTS):
        if not dead.any():
            break
        again = np.flatnonzero(dead)
        redo = _walk(choice, cost, starts[again], rng.uniform(size=(len(again), n - 1)))
        tours[again], lengths[again], dead[again] = redo
    if dead.any():
        raise DeadEndError(f"an ant still found no positive trail after {MAX_RESTARTS} restarts")
    if not (lengths < float("inf")).all():
        raise NumericDivergenceError("a tour length diverged")
    return list(zip(tours.tolist(), lengths.tolist()))


def evaporate(net: ComputingNetwork, rate: float) -> None:
    """Decay every trail, clamped to the architecture's pheromone floor."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"evaporation rate must be in [0, 1], got {rate}")
    tau = net.arch.pheromone
    np.maximum(net.arch.params.min_pheromone, (1.0 - rate) * tau, out=tau)


def deposit(
    net: ComputingNetwork, solutions: Sequence[tuple[Sequence[int], float]], amount: float
) -> None:
    """Every solution reinforces its tour edges by amount / tour length.

    Trails shared by several tours take their shares in solution order,
    one addition at a time, as a loop over the solutions would.
    """
    for _, length in solutions:
        if length <= 0.0:
            raise MalformedInstanceError(
                f"tour length must be positive to deposit, got {length}"
            )
    if not solutions:
        return
    here = np.array([path for path, _ in solutions], dtype=np.intp)
    after = _successors(here)
    shares = np.repeat([amount / length for _, length in solutions], 2 * here.shape[1])
    # both directions of every tour edge, solution by solution; add.at
    # adds repeated indices in order, and one tour never repeats an index
    rows = np.concatenate([here, after], axis=1).ravel()
    cols = np.concatenate([after, here], axis=1).ravel()
    np.add.at(net.arch.pheromone, (rows, cols), shares)


def demon_local_search(path: Sequence[int], graph: TourGraph) -> list[int]:
    """2-opt: reverse segments while any reversal shortens the closed tour.

    First improvement, in the order of the plain double loop over
    (i, j): for each i the gains of every remaining j are computed at
    once, the first improving reversal is applied, and the scan goes on
    from j + 1 on the updated tour.
    """
    cost = graph.cost_matrix
    n = len(path)
    # ring[n] repeats ring[0]; no reversal touches either end
    ring = np.array([*path, path[0]], dtype=np.intp)
    edge = cost[ring[:-1], ring[1:]]  # edge[k]: cost of ring[k] -> ring[k + 1]
    improved = True
    while improved:
        improved = False
        for i in range(n - 2):
            stop = n - 1 if i == 0 else n  # reversing the whole tour changes nothing
            j = i + 2
            while j < stop:
                delta = (
                    cost[ring[i]][ring[j:stop]] + cost[ring[i + 1]][ring[j + 1 : stop + 1]]
                    - edge[i] - edge[j:stop]
                )
                k = int((delta < -1e-12).argmax())
                if not delta[k] < -1e-12:
                    break
                j += k
                ring[i + 1 : j + 1] = ring[j:i:-1].copy()
                edge[i : j + 1] = cost[ring[i : j + 1], ring[i + 1 : j + 2]]
                improved = True
                j += 1
    return ring[:n].tolist()


def best_path(net: ComputingNetwork) -> list[int] | None:
    """Best closed tour found so far, or None before any construction."""
    found = net.arch.best_path_found
    return None if found is None else list(found)


def build_aco_network(
    graph: TourGraph, params: AcoParams | None = None
) -> ComputingNetwork:
    """Complete trail network; the pheromone lives on the architecture, and
    nodes and edges are derived from the graph only when read."""
    return ComputingNetwork(arch=AcoArchitecture(graph, params or AcoParams()))
