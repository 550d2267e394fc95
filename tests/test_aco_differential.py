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
from cnets import aco
from cnets.aco import (
    AcoArchitecture,
    AcoParams,
    build_aco_network,
    construct_solutions,
    demon_local_search,
)
from cnets.errors import DeadEndError
from cnets.problems import TourGraph
from cnets.rng import RngStream, draw_walks

# integer and non-integer exponents, the ends of the range included
EXPONENTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 6.0]), st.floats(0.0, 6.0))
SEEDS = st.integers(min_value=0, max_value=2**32)

# every power of two and its neighbours, the subnormals and the ends of the
# range among them (the smallest one's lower neighbour is 0.0)
POWERS_OF_TWO = [2.0**e for e in range(-1074, 1024)]
POWER_GRID = [
    5e-324,
    1e-300,
    sys.float_info.max,
    *POWERS_OF_TWO,
    *(math.nextafter(t, bound) for t in POWERS_OF_TWO for bound in (0.0, math.inf)),
]


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
    net.pheromone[...] = random_pheromone(n, RngStream(seed, 1))
    lockstep, scalar = RngStream(seed, 2), RngStream(seed, 2)
    got = construct_solutions(net, lockstep)
    want = oracle.construct_solutions(net.pheromone[0].tolist(), graph, params, scalar)
    assert got == want
    assert next_draws(lockstep) == next_draws(scalar)


@given(n=st.integers(3, 40), seed=SEEDS, alpha=EXPONENTS, beta=EXPONENTS)
@settings(max_examples=60, deadline=None)
def test_choice_info_matches_scalar_weights(n, seed, alpha, beta):
    """Bit for bit: a one-ulp weight difference rarely flips a move, so tours alone would miss it."""
    graph = instance(n, seed)
    params = AcoParams(alpha=alpha, beta=beta)
    net = build_aco_network(graph, params)
    net.pheromone[...] = random_pheromone(n, RngStream(seed, 1))
    choice = net.choice_info()[0]
    pheromone = net.pheromone[0].tolist()
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
    pheromone = net.pheromone[0].tolist()
    lockstep, scalar = RngStream(seed, 3), RngStream(seed, 3)
    for _ in range(3):
        net.fast(lockstep)
        walked = net.walked
        want = oracle.construct_solutions(pheromone, graph, params, scalar)
        assert list(zip(walked.paths.tolist(), walked.lengths.tolist())) == want
        net.slow(lockstep)
        oracle.evaporate(pheromone, evaporation, params.min_pheromone)
        if demon == "two-opt":
            index = min(range(len(want)), key=lambda k: want[k][1])
            better = oracle.two_opt(want[index][0], graph)
            want[index] = (better, graph.tour_length(better))
        oracle.deposit(pheromone, want, params.deposit)
        assert net.pheromone[0].tolist() == pheromone
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
    """Colonies at alpha = 1.0 take the power like the others, and a stack
    whose alphas are all 1.0 skips it; both give Python's ** bits."""
    graph = instance(n, seed)
    colonies = [AcoParams(alpha=alpha, beta=beta) for alpha in [1.0, *alphas]]
    net = AcoArchitecture.lockstep([build_aco_network(graph, params) for params in colonies])
    for k in range(len(colonies)):
        net.pheromone[k] = random_pheromone(n, RngStream(seed, 10 + k))
    choice = net.choice_info()
    for k, params in enumerate(colonies):
        pheromone = net.pheromone[k].tolist()
        for here in range(n):
            others = [node for node in range(n) if node != here]
            want = oracle.transition_weights(here, others, pheromone, graph, params)
            assert choice[k, here, others].tolist() == want


def test_power_one_is_the_identity():
    """choice_info relies on t ** 1.0 == t: pinned at both ends of the
    range and at every power of two and its neighbours."""
    for t in POWER_GRID:
        assert t**1.0 == t


@given(
    bases=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), max_size=40),
    exponents=st.lists(EXPONENTS, min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_float_power_is_python_power(bases, exponents):
    """choice_info takes its powers with np.float_power, as an array
    broadcast against one exponent per row; each must have the bits of
    Python's x ** a, an overflow (OverflowError there) being inf."""
    bases = [*POWER_GRID, *bases]

    def power(x, a):
        try:
            return x**a
        except OverflowError:
            return math.inf

    with np.errstate(over="ignore", under="ignore"):
        got = np.float_power(np.array(bases), np.array(exponents)[:, None])
    # nonnegative results: equal values have equal bits
    assert got.tolist() == [[power(x, a) for x in bases] for a in exponents]


def walk_and_position(walk, stream):
    """A walk's solutions and its stream's next draws, or (None, None) when
    it ends in a dead end."""
    try:
        return walk(stream), next_draws(stream)
    except DeadEndError:
        return None, None


def check_stacked_walk(graph, colonies, seed, zero_share):
    """The stack's walk equals each colony's lone walk, with the same stream
    position after it; the last colony's trails are zeroed at zero_share. A
    colony that walks on its one block of draws equals the scalar walk too.
    One that goes past it restarted a dead end, which the scalar walk
    restarts at once, on other draws; and the stack, which cannot restart,
    must then dead-end. Returns the stack's solutions, None after a dead end."""
    n = graph.n
    nets = [build_aco_network(graph, params) for params in colonies]
    for k, net in enumerate(nets):
        net.pheromone[0] = random_pheromone(n, RngStream(seed, 10 + k))
    zeros = np.triu(RngStream(seed, 9).uniform(size=(n, n)) < zero_share, 1)
    nets[-1].pheromone[0][zeros | zeros.T] = 0.0
    block = RngStream(seed, 2)
    draw_walks(block, colonies[0].ants, n)
    one_block = next_draws(block)
    alone, restarted = [], False
    for net, params in zip(nets, colonies):
        solutions, position = walk_and_position(lambda s: construct_solutions(net, s), RngStream(seed, 2))
        pheromone = net.pheromone[0].tolist()
        if position == one_block:
            scalar = walk_and_position(
                lambda s: oracle.construct_solutions(pheromone, graph, params, s), RngStream(seed, 2)
            )
            assert (solutions, position) == scalar
        restarted |= position != one_block
        alone += solutions or []
    together, after = walk_and_position(
        lambda s: construct_solutions(AcoArchitecture.lockstep(nets), s), RngStream(seed, 2)
    )
    if restarted:
        assert together is None
    else:
        assert (together, after) == (alone, one_block)
    return together


@given(
    n=st.integers(3, 10),
    seed=SEEDS,
    count=st.sampled_from(range(2, 65)),
    exponents=st.lists(st.tuples(EXPONENTS, EXPONENTS), min_size=1, max_size=8),
    ants=st.integers(1, 12),
    zero_share=st.sampled_from([0.0, 0.1, 0.3]),
)
@settings(max_examples=40, deadline=None)
def test_stacked_walk_matches_lone_and_scalar_walks(n, seed, count, exponents, ants, zero_share):
    """Up to 768 walkers on 3 to 10 locations: both running-sum layouts.
    The colonies take their (alpha, beta) from exponents in turn."""
    turns = itertools.islice(itertools.cycle(exponents), count)
    colonies = [AcoParams(alpha=alpha, beta=beta, ants=ants) for alpha, beta in turns]
    check_stacked_walk(instance(n, seed), colonies, seed, zero_share)


@pytest.mark.parametrize("extra, axis", [(0, 1), (1, 0)], ids=["rows", "locations"])
def test_stacked_walk_on_each_side_of_the_layout_bound(monkeypatch, extra, axis):
    """WALKERS_PER_LOCATION * n one-ant colonies sum by rows; one more, by locations."""
    n = 8
    count = aco.WALKERS_PER_LOCATION * n + extra
    layouts = set()  # (axis, walkers) of every move
    plain = aco.next_locations

    def next_locations(weights, keep, uniforms, axis):
        layouts.add((axis, weights.shape[1 - axis]))
        return plain(weights, keep, uniforms, axis)

    monkeypatch.setattr(aco, "next_locations", next_locations)
    colonies = [AcoParams(alpha=[0.5, 1.0, 2.5][k % 3], beta=[2.0, 0.0][k % 2], ants=1) for k in range(count)]
    assert check_stacked_walk(instance(n, 9), colonies, 9, 0.0) is not None
    assert {a for a, walkers in layouts if walkers == count} == {axis}
