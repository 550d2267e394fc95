"""The lockstep colony and array 2-opt against their scalar oracles.

Equality here is exact: same tours, same float lengths, same pheromone
bits and the same random stream afterwards, which is what keeps record
files byte-identical.
"""
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aco_oracle as oracle
from instances import random_euclidean
from cnets.aco import (
    AcoArchitecture,
    AcoParams,
    build_aco_network,
    construct_solutions,
    demon_local_search,
)
from cnets.problems import TourGraph
from cnets.rng import RngStream

# integer and non-integer exponents, the ends of the range included
EXPONENTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 6.0]), st.floats(0.0, 6.0))
SEEDS = st.integers(min_value=0, max_value=2**32)


def instance(n: int, seed: int, grid: bool = False, box: float = 100.0) -> TourGraph:
    """Random cities in a box; on a grid, many trails tie in cost."""
    rng = RngStream(seed)
    if grid:
        side = max(7, math.isqrt(n - 1) + 1)
        cells = rng.permutation(side * side)[:n]
        return TourGraph.from_coordinates([(int(c) % side, int(c) // side) for c in cells])
    return random_euclidean(n, rng, box)


def random_pheromone(n: int, rng: RngStream) -> np.ndarray:
    upper = np.triu(rng.uniform(0.01, 10.0, size=(n, n)), 1)
    return upper + upper.T + np.eye(n)


def next_draws(rng: RngStream) -> tuple[float, int]:
    """One more double and one more 32-bit integer: compares the whole stream state."""
    return float(rng.uniform()), int(rng.integers(0, 2**31))


@given(
    n=st.integers(3, 40),
    seed=SEEDS,
    alpha=EXPONENTS,
    beta=EXPONENTS,
    ants=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_walk_matches_scalar_walk(n, seed, alpha, beta, ants):
    graph = instance(n, seed)
    params = AcoParams(alpha=alpha, beta=beta, ants=ants)
    net = build_aco_network(graph, params)
    net.arch.pheromone[...] = random_pheromone(n, RngStream(seed, 1))
    lockstep, scalar = RngStream(seed, 2), RngStream(seed, 2)
    got = construct_solutions(net, lockstep)
    want = oracle.construct_solutions(net.arch.pheromone[0].tolist(), graph, params, scalar)
    assert got == want
    assert next_draws(lockstep) == next_draws(scalar)


@given(n=st.integers(3, 40), seed=SEEDS, alpha=EXPONENTS, beta=EXPONENTS)
@settings(max_examples=60, deadline=None)
def test_choice_info_matches_scalar_weights(n, seed, alpha, beta):
    """Bit for bit: a one-ulp weight difference rarely flips a move, so tours alone would miss it."""
    graph = instance(n, seed)
    params = AcoParams(alpha=alpha, beta=beta)
    net = build_aco_network(graph, params)
    net.arch.pheromone[...] = random_pheromone(n, RngStream(seed, 1))
    choice = net.arch.choice_info()[0]
    pheromone = net.arch.pheromone[0].tolist()
    for here in range(n):
        others = [node for node in range(n) if node != here]
        want = oracle.transition_weights(here, others, pheromone, graph, params)
        assert choice[here, others].tolist() == want
        assert choice[here, here] == 0.0


@given(
    n=st.integers(3, 25),
    seed=SEEDS,
    alpha=EXPONENTS,
    beta=EXPONENTS,
    ants=st.integers(1, 8),
    evaporation=st.floats(0.0, 1.0),
    demon=st.sampled_from(["off", "two-opt"]),
)
@settings(max_examples=40, deadline=None)
def test_colony_iterations_match_scalar_updates(n, seed, alpha, beta, ants, evaporation, demon):
    """Fast and slow steps of the architecture, iteration by iteration."""
    graph = instance(n, seed)
    params = AcoParams(alpha=alpha, beta=beta, ants=ants, evaporation=evaporation, demon=demon)
    net = build_aco_network(graph, params)
    pheromone = net.arch.pheromone[0].tolist()
    lockstep, scalar = RngStream(seed, 3), RngStream(seed, 3)
    for _ in range(3):
        net.arch.fast(net, lockstep)
        walked = net.arch.walked
        want = oracle.construct_solutions(pheromone, graph, params, scalar)
        assert list(zip(walked.paths.tolist(), walked.lengths.tolist())) == want
        net.arch.slow(net, lockstep)
        oracle.evaporate(pheromone, evaporation, params.min_pheromone)
        if demon == "two-opt":
            index = min(range(len(want)), key=lambda k: want[k][1])
            better = oracle.two_opt(want[index][0], graph)
            want[index] = (better, graph.tour_length(better))
        oracle.deposit(pheromone, want, params.deposit)
        assert net.arch.pheromone[0].tolist() == pheromone
    assert next_draws(lockstep) == next_draws(scalar)


@given(n=st.integers(3, 40), seed=SEEDS, grid=st.booleans())
@settings(max_examples=80, deadline=None)
def test_array_two_opt_matches_scalar_two_opt(n, seed, grid):
    graph = instance(n, seed, grid=grid)
    path = [int(v) for v in RngStream(seed, 4).permutation(n)]
    assert demon_local_search(path, graph) == oracle.two_opt(path, graph)


# From n = 58 on, a pass that improves nothing scans blocks of 8, 16 and
# then a full block of 32 rows (aco.SCAN_ROWS).
@given(n=st.integers(41, 120), seed=SEEDS, grid=st.booleans())
@settings(max_examples=16, deadline=None)
def test_two_opt_in_full_row_blocks_matches_scalar_two_opt(n, seed, grid):
    graph = instance(n, seed, grid=grid)
    path = [int(v) for v in RngStream(seed, 4).permutation(n)]
    assert demon_local_search(path, graph) == oracle.two_opt(path, graph)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("grid", [False, True])
def test_two_opt_of_every_small_tour_matches_scalar_two_opt(n, grid):
    graph = instance(n, 7, grid=grid)
    for path in itertools.permutations(range(n)):
        assert demon_local_search(path, graph) == oracle.two_opt(path, graph)


@given(n=st.integers(3, 12), seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_two_opt_never_reverses_the_whole_tour(n, seed):
    """At costs near 1e9 the whole tour's rounded gain can fall below the
    threshold; the loop skips that pair, and so must the block scan."""
    graph = instance(n, seed, box=1e9)
    path = [int(v) for v in RngStream(seed, 4).permutation(n)]
    assert demon_local_search(path, graph) == oracle.two_opt(path, graph)


@pytest.mark.parametrize("n", [3, 10, 60, 100])
def test_two_optimal_tour_comes_back_unchanged(n):
    graph = instance(n, 5)
    optimal = oracle.two_opt([int(v) for v in RngStream(5, 4).permutation(n)], graph)
    assert demon_local_search(optimal, graph) == optimal


@given(n=st.integers(3, 30), seed=SEEDS, alphas=st.lists(EXPONENTS, min_size=1, max_size=4), beta=EXPONENTS)
@settings(max_examples=40, deadline=None)
def test_stacked_choice_info_with_mixed_alphas_matches_scalar_weights(n, seed, alphas, beta):
    """Colonies at alpha = 1.0 skip the power; the others keep Python's **."""
    graph = instance(n, seed)
    colonies = [AcoParams(alpha=alpha, beta=beta) for alpha in [1.0, *alphas]]
    net = AcoArchitecture.lockstep([build_aco_network(graph, params) for params in colonies])
    for k in range(len(colonies)):
        net.arch.pheromone[k] = random_pheromone(n, RngStream(seed, 10 + k))
    choice = net.arch.choice_info()
    for k, params in enumerate(colonies):
        pheromone = net.arch.pheromone[k].tolist()
        for here in range(n):
            others = [node for node in range(n) if node != here]
            want = oracle.transition_weights(here, others, pheromone, graph, params)
            assert choice[k, here, others].tolist() == want


def test_power_one_is_the_identity():
    """choice_info relies on t ** 1.0 == t: pinned at both ends of the
    range and at every power of two and its neighbours."""
    powers = [2.0**e for e in range(-1074, 1024)]
    neighbours = [math.nextafter(t, bound) for t in powers for bound in (0.0, math.inf)]
    for t in [5e-324, 1e-300, sys.float_info.max, *powers, *neighbours]:
        assert t**1.0 == t
