import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instances import random_euclidean
from cnets.aco import (
    MAX_RESTARTS,
    WALK_DOUBLES,
    AcoParams,
    Tours,
    build_aco_network,
    check_walk_size,
    construct_solutions,
    demon_local_search,
    deposit,
    evaporate,
    next_locations,
)
from cnets.core import ScaleSchedule, run
from cnets.errors import (
    ConfigurationError,
    DeadEndError,
    MalformedInstanceError,
    NumericDivergenceError,
)
from cnets.problems import TourGraph
from cnets.rng import RngStream


def square_graph():
    return TourGraph.from_coordinates([(0, 0), (1, 0), (1, 1), (0, 1)])


def tours(*solutions):
    """(path, length) pairs as one iteration's Tours."""
    paths, lengths = zip(*solutions)
    return Tours(np.array(paths, dtype=np.intp), np.array(lengths, dtype=float))


def brute_force_optimum(graph):
    best = float("inf")
    for perm in itertools.permutations(range(1, graph.n)):
        best = min(best, graph.tour_length([0, *perm]))
    return best


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"beta": -1.0},
            {"evaporation": 1.5},
            {"evaporation": -0.1},
            {"deposit": 0.0},
            {"ants": 0},
            {"initial_pheromone": 0.0},
            {"min_pheromone": 0.0},
            {"demon": "three-opt"},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"deposit": float("nan")},
            {"deposit": float("inf")},
            {"initial_pheromone": float("nan")},
            {"initial_pheromone": float("inf")},
            {"min_pheromone": float("nan")},
            {"min_pheromone": float("inf")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AcoParams(**kwargs)

    def test_defaults_are_valid(self):
        AcoParams()

    def test_walk_size_is_bounded_by_its_estimate(self):
        check_walk_size(WALK_DOUBLES // 5, 5, "ants")
        check_walk_size(1, WALK_DOUBLES, "ants")
        for ants, n in [(WALK_DOUBLES // 5 + 1, 5), (100_000_000, 5), (2, WALK_DOUBLES)]:
            with pytest.raises(ConfigurationError, match=f"^ants: {ants} ants on {n} locations"):
                check_walk_size(ants, n, "ants")


def probabilities(row: np.ndarray, here: int) -> np.ndarray:
    """Move probabilities out of here, from one choice_info row."""
    weights = np.delete(row, here)
    return weights / weights.sum()


def move(weights, visited, uniforms, axis):
    """next_locations on rows of weights and visited flags, laid out along axis."""
    weights, keep = np.array(weights, dtype=float), 1.0 - np.array(visited, dtype=float)
    if axis == 0:
        weights, keep = weights.T.copy(), keep.T.copy()
    return next_locations(weights, keep, np.array(uniforms), axis)


# next_locations' two layouts: walker rows (axis 1) and locations-major (axis 0)
@pytest.fixture(params=[1, 0], ids=["rows", "locations"])
def axis(request):
    return request.param


class TestTransitions:
    def test_worked_probability_example(self):
        # from node 0: pheromones (2, 1), desirabilities (1, 1), alpha = beta = 1
        graph = TourGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        params = AcoParams(alpha=1.0, beta=1.0)
        net = build_aco_network(graph, params)
        tau = net.pheromone[0]
        tau[0, 1] = tau[1, 0] = 2.0
        row = net.choice_info()[0][0]
        assert probabilities(row, 0) == pytest.approx([2 / 3, 1 / 3])

    def test_beta_raises_desirability(self):
        # costs 0.5 and 1 out of node 0: desirabilities 2 and 1
        graph = TourGraph([[0, 0.5, 1], [0.5, 0, 1], [1, 1, 0]])
        params = AcoParams(alpha=1.0, beta=2.0)
        net = build_aco_network(graph, params)
        assert net.choice_info()[0][0].tolist() == pytest.approx([0.0, 4.0, 1.0])

    def test_zero_total_weight_is_a_dead_end(self, axis):
        _, dead = move([[0.0, 0.0, 0.0]], [[True, False, False]], [0.5], axis)
        assert dead.tolist() == [True]

    def test_choose_next_skips_visited(self, axis):
        for u in (0.0, 0.5, 0.999999):
            chosen, dead = move([[0.0, 25.0, 1.0]], [[True, True, False]], [u], axis)
            assert chosen.tolist() == [2] and dead.tolist() == [False]

    def test_choose_next_with_everything_visited(self, axis):
        _, dead = move([[0.0, 1.0, 1.0]], [[True, True, True]], [0.5], axis)
        assert dead.tolist() == [True]

    def test_rounding_at_the_total_takes_the_last_unvisited_location(self, axis):
        # a subnormal total times u rounds back up to the total, so no
        # running sum exceeds the threshold: the scalar walk then takes
        # its last admissible candidate, here a zero-weight one; the
        # second walker moves as usual
        chosen, dead = move(
            [[0.0, 5e-324, 0.0], [0.0, 1.0, 3.0]], [[True, False, False], [True, False, False]], [0.9, 0.5], axis
        )
        assert chosen.tolist() == [2, 2] and dead.tolist() == [False, False]

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30)
    def test_probabilities_sum_to_one(self, seed):
        rng = RngStream(seed)
        graph = random_euclidean(5, rng)
        params = AcoParams(alpha=1.3, beta=0.7)
        net = build_aco_network(graph, params)
        upper = np.triu(rng.uniform(0.1, 5.0, size=(5, 5)), 1)
        net.pheromone[...] = upper + upper.T
        choice = net.choice_info()[0]
        for here in range(5):
            probs = probabilities(choice[here], here)
            assert probs.sum() == pytest.approx(1.0)
            assert (probs > 0).all()


class CountingStream(RngStream):
    """An RngStream that logs every draw call: "words" for a block of raw
    words, else the method's name."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def uniform(self, *args, **kwargs):
        self.calls.append("uniform")
        return super().uniform(*args, **kwargs)

    def integers(self, low, high, size=None, dtype=np.int64):
        self.calls.append("words" if dtype is np.uint64 else "integers")
        return super().integers(low, high, size, dtype)


class TestDeadEnds:
    def test_underflow_dead_ends_after_the_restart_bound(self):
        # every trail at the floor: 1e-9 ** 100 underflows to 0
        params = AcoParams(alpha=100.0, ants=2)
        net = build_aco_network(square_graph(), params)
        evaporate(net, 1.0)
        assert (net.pheromone == params.min_pheromone).all()
        rng = CountingStream(7)
        with pytest.raises(DeadEndError):
            construct_solutions(net, rng)
        # one block holds every ant's start and walk, then the stuck ants are re-walked
        assert rng.calls == ["words"] + ["uniform"] * MAX_RESTARTS

    def test_dead_ended_ants_restart_from_their_start(self):
        # a square with a fifth node below its bottom edge; only the trails
        # listed have positive weight, so many walks get stuck part-way
        graph = TourGraph.from_coordinates([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, -0.5)])
        trails = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]
        params = AcoParams(alpha=100.0, ants=6)
        net = build_aco_network(graph, params)
        tau = net.pheromone[0]
        tau[...] = params.min_pheromone
        for a, b in trails:
            tau[a, b] = tau[b, a] = 1.0
        rng = CountingStream(3)
        solutions = construct_solutions(net, rng)
        # the first block held every ant's walk: each draw after it is a restart
        assert rng.calls[0] == "words" and rng.calls[1:]
        assert set(rng.calls[1:]) == {"uniform"}
        for path, length in solutions:
            assert length == graph.tour_length(path)
            steps = {frozenset(pair) for pair in zip(path, path[1:])}
            assert steps <= {frozenset(pair) for pair in trails}


class TestDivergence:
    def test_overflowing_pheromone_power_is_a_divergence(self):
        graph = random_euclidean(6, RngStream(1))
        net = build_aco_network(graph, AcoParams(alpha=400.0, initial_pheromone=10.0))
        with pytest.raises(NumericDivergenceError) as caught:
            run(net, ScaleSchedule(slow_steps=2), RngStream(2))
        assert caught.value.step_position == (1, 0)

    def test_overflowing_desirability_power_is_a_divergence(self):
        graph = TourGraph.from_coordinates([(0, 0), (1e-90, 0), (1, 1)])
        params = AcoParams(beta=6.0)
        net = build_aco_network(graph, params)
        with pytest.raises(NumericDivergenceError):
            construct_solutions(net, RngStream(0))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_infinite_pheromone_is_a_divergence(self, alpha):
        # an infinite input raises no overflow, but its row sums are not finite
        net = build_aco_network(square_graph(), AcoParams(alpha=alpha))
        net.pheromone[0, 0, 1] = net.pheromone[0, 1, 0] = np.inf
        with pytest.raises(NumericDivergenceError, match="transition weights overflow"):
            construct_solutions(net, RngStream(0))

    def test_weights_too_large_to_sum_are_a_divergence(self):
        # every weight is finite, but a row of them sums past the largest double
        graph = TourGraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        params = AcoParams(alpha=1.0, beta=0.0, initial_pheromone=1e308)
        net = build_aco_network(graph, params)
        with pytest.raises(NumericDivergenceError):
            construct_solutions(net, RngStream(0))


class TestPheromoneUpdates:
    def test_evaporation_scales_every_trail(self):
        net = build_aco_network(square_graph(), AcoParams(initial_pheromone=2.0))
        evaporate(net, 0.1)
        tau = net.pheromone[0]
        assert tau[tuple(net.edges.T)].tolist() == pytest.approx([1.8] * len(net.edges))

    def test_evaporation_respects_the_floor(self):
        net = build_aco_network(
            square_graph(), AcoParams(initial_pheromone=1.0, min_pheromone=0.5)
        )
        evaporate(net, 0.9)
        assert (net.pheromone == 0.5).all()

    def test_deposit_adds_amount_over_length(self):
        graph = square_graph()
        net = build_aco_network(graph, AcoParams(initial_pheromone=1.0))
        deposit(net, tours(([0, 1, 2, 3], 4.0)), amount=1.0)
        tau = net.pheromone[0]
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            assert tau[i, j] == tau[j, i] == pytest.approx(1.25)
        # the diagonals carry no deposit
        assert tau[0, 2] == tau[2, 0] == 1.0
        assert tau[1, 3] == tau[3, 1] == 1.0

    def test_deposit_rejects_degenerate_length(self):
        net = build_aco_network(square_graph())
        with pytest.raises(MalformedInstanceError):
            deposit(net, tours(([0, 1, 2, 3], 0.0)), amount=1.0)

    @pytest.mark.parametrize(
        "initial, amount, length",
        [(1.0, 1e308, 0.5), (1e308, 1e308, 1.0)],
        ids=["share", "trail"],
    )
    def test_deposit_that_overflows_is_a_divergence(self, initial, amount, length):
        net = build_aco_network(square_graph(), AcoParams(initial_pheromone=initial))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDivergenceError, match="pheromone overflows"):
                deposit(net, tours(([0, 1, 2, 3], length)), amount=amount)

    def test_trail_lookup_is_symmetric(self):
        net = build_aco_network(square_graph())
        deposit(net, tours(([0, 2, 1, 3], 5.0), ([3, 1, 0, 2], 4.0)), amount=1.0)
        tau = net.pheromone[0]
        assert tau[0, 2] == tau[2, 0]
        assert (tau == tau.T).all()
        # there is no trail from a node to itself
        assert (np.diag(net.choice_info()[0]) == 0.0).all()


class TestConstruction:
    def test_tours_are_valid_permutations(self):
        graph = random_euclidean(6, RngStream(11))
        net = build_aco_network(graph, AcoParams(ants=8))
        solutions = construct_solutions(net, RngStream(12))
        assert len(solutions) == 8
        for path, length in solutions:
            assert sorted(path) == list(range(6))
            assert length == pytest.approx(graph.tour_length(path))

    def test_no_ants_left_behind(self):
        graph = random_euclidean(5, RngStream(3))
        net = build_aco_network(graph, AcoParams(ants=4))
        before = net.pheromone.copy()
        construct_solutions(net, RngStream(4))
        # construction leaves nothing behind: no trail change
        assert (net.pheromone == before).all()

    def test_construction_is_seed_deterministic(self):
        graph = random_euclidean(5, RngStream(3))

        def tours(seed):
            net = build_aco_network(graph, AcoParams(ants=5))
            return construct_solutions(net, RngStream(seed))

        assert tours(9) == tours(9)
        assert tours(9) != tours(10)


class TestDemon:
    def test_two_opt_untangles_a_crossing(self):
        graph = square_graph()
        crossed = [0, 2, 1, 3]
        improved = demon_local_search(crossed, graph)
        assert graph.tour_length(improved) == pytest.approx(4.0)
        assert graph.tour_length(improved) < graph.tour_length(crossed)

    def test_two_opt_never_lengthens(self):
        graph = random_euclidean(7, RngStream(21))
        rng = RngStream(22)
        for _ in range(10):
            path = [int(v) for v in rng.permutation(7)]
            improved = demon_local_search(path, graph)
            assert graph.tour_length(improved) <= graph.tour_length(path) + 1e-9

    def test_optimal_square_is_a_fixed_point(self):
        graph = square_graph()
        assert demon_local_search([0, 1, 2, 3], graph) == [0, 1, 2, 3]


class TestColonyRuns:
    def test_best_value_never_worsens(self):
        graph = random_euclidean(6, RngStream(31))
        net = build_aco_network(graph, AcoParams(ants=6))
        records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=15), RngStream(32))
        values = [r.best_value for r in records]
        assert values[0] is None  # nothing constructed before the first fast step
        trailing = [v for v in values if v is not None]
        assert all(b <= a for a, b in zip(trailing, trailing[1:]))

    def test_readout_matches_best_path(self):
        graph = random_euclidean(5, RngStream(41))
        net = build_aco_network(graph, AcoParams(ants=5))
        run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=5), RngStream(42))
        path = net.best.paths[0].tolist()
        assert sorted(path) == list(range(5))
        assert net.best.lengths[0] == pytest.approx(graph.tour_length(path))
        assert net.readout() == [float(v) for v in path]

    def test_finds_square_optimum(self):
        graph = square_graph()
        net = build_aco_network(graph, AcoParams(ants=8))
        run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=20), RngStream(5))
        assert net.best.lengths[0] == pytest.approx(4.0)

    def test_demon_run_reaches_optimum_quickly(self):
        graph = random_euclidean(7, RngStream(51))
        optimum = brute_force_optimum(graph)
        net = build_aco_network(graph, AcoParams(ants=8, demon="two-opt"))
        run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=10), RngStream(52))
        assert net.best.lengths[0] == pytest.approx(optimum)

    def test_pheromone_floor_holds_during_a_run(self):
        graph = random_euclidean(5, RngStream(61))
        params = AcoParams(ants=3, evaporation=0.9, min_pheromone=1e-6)
        net = build_aco_network(graph, params)
        run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=10), RngStream(62))
        assert (net.pheromone >= 1e-6).all()
