"""The lockstep colony and array 2-opt against their scalar oracles.

Equality here is exact: same tours, same float lengths, same pheromone
bits and the same random stream afterwards, which is what keeps record
files byte-identical.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import aco_oracle as oracle
from cnets.aco import AcoParams, build_aco_network, construct_solutions, demon_local_search
from cnets.problems import TourGraph
from cnets.rng import RngStream

# integer and non-integer exponents, the ends of the range included
EXPONENTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 6.0]), st.floats(0.0, 6.0))
SEEDS = st.integers(min_value=0, max_value=2**32)


def instance(n: int, seed: int, grid: bool = False) -> TourGraph:
    """Random cities; on a grid, many trails tie in cost."""
    rng = RngStream(seed)
    if grid:
        cells = rng.permutation(49)[:n]
        return TourGraph.from_coordinates([(int(c) % 7, int(c) // 7) for c in cells])
    return TourGraph.random_euclidean(n, rng)


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
