"""Scalar reference forms of the colony kernels in cnets.aco, kept as test oracles.

One ant at a time, one step at a time, one candidate at a time: the
walk and the 2-opt double loop as plainly as they can be written. They
read the same pheromone array as the lockstep colony and must give the
same tours, the same lengths and the same random draws.
"""
from __future__ import annotations

from typing import Sequence

from cnets.aco import MAX_RESTARTS, AcoParams
from cnets.errors import DeadEndError, NumericDivergenceError
from cnets.problems import TourGraph
from cnets.rng import RngStream


def transition_weights(
    here: int, candidates: Sequence[int], pheromone, graph: TourGraph, params: AcoParams
) -> list[float]:
    """Unnormalized preference for each candidate trail out of here."""
    return [
        float(pheromone[here][node]) ** params.alpha
        * (1.0 / graph.costs.item(here, node)) ** params.beta
        for node in candidates
    ]


def choose_next(
    here: int, visited: set[int], pheromone, graph: TourGraph, params: AcoParams, rng: RngStream
) -> int:
    """Sample the ant's next location among unvisited candidates."""
    admissible = [node for node in range(graph.n) if node not in visited]
    if not admissible:
        raise DeadEndError("ant has no unvisited location to move to")
    weights = transition_weights(here, admissible, pheromone, graph, params)
    total = sum(weights)
    if total <= 0.0:
        raise DeadEndError("no admissible move has positive weight")
    threshold = float(rng.uniform(0.0, total))
    acc = 0.0
    for node, w in zip(admissible, weights):
        acc += w
        if threshold < acc:
            return node
    return admissible[-1]


def construct_one(
    start: int, pheromone, graph: TourGraph, params: AcoParams, rng: RngStream
) -> tuple[list[int], float]:
    path, length, visited = [start], 0.0, {start}
    while len(path) < graph.n:
        here = path[-1]
        nxt = choose_next(here, visited, pheromone, graph, params, rng)
        length += graph.costs.item(here, nxt)
        path.append(nxt)
        visited.add(nxt)
    length += graph.costs.item(path[-1], path[0])
    if not length < float("inf"):
        raise NumericDivergenceError(f"tour length diverged at node {path[-1]}")
    return path, length


def construct_solutions(
    pheromone, graph: TourGraph, params: AcoParams, rng: RngStream
) -> list[tuple[list[int], float]]:
    """Every ant in turn draws its start and walks; dead ends restart it."""
    solutions = []
    for _ in range(params.ants):
        start = int(rng.integers(0, graph.n))
        restarts = 0
        while True:
            try:
                solutions.append(construct_one(start, pheromone, graph, params, rng))
                break
            except DeadEndError:
                restarts += 1
                if restarts > MAX_RESTARTS:
                    raise
    return solutions


def evaporate(pheromone, rate: float, floor: float) -> None:
    for row in pheromone:
        for j, tau in enumerate(row):
            row[j] = max(floor, (1.0 - rate) * float(tau))


def deposit(pheromone, solutions: Sequence[tuple[Sequence[int], float]], amount: float) -> None:
    for path, length in solutions:
        share = amount / length
        for k in range(len(path)):
            a, b = path[k], path[(k + 1) % len(path)]
            pheromone[a][b] = float(pheromone[a][b]) + share
            pheromone[b][a] = float(pheromone[b][a]) + share


def two_opt(path: Sequence[int], graph: TourGraph) -> list[int]:
    """2-opt: reverse segments while any reversal shortens the closed tour."""
    tour = list(path)
    n = len(tour)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # reversing the whole tour changes nothing
                a, b = tour[i], tour[i + 1]
                c, d = tour[j], tour[(j + 1) % n]
                delta = (
                    graph.costs.item(a, c) + graph.costs.item(b, d)
                    - graph.costs.item(a, b) - graph.costs.item(c, d)
                )
                if delta < -1e-12:
                    tour[i + 1 : j + 1] = reversed(tour[i + 1 : j + 1])
                    improved = True
    return tour
