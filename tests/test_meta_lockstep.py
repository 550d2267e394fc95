"""Stacked (lockstep) and one-at-a-time genome evaluation agree bit for bit.

evaluate_genome runs several genomes as one stack, a network of many
colonies that AcoArchitecture.lockstep builds, over the seeds that share
a problem when their colonies stack, and one at a time otherwise.
Fitness is a pure function of the genome, so both paths must give the
same floats, or raise the same error, for every batch: extreme exponents
that dead-end or overflow, 2-opt, and a rebuild that draws its graph
from the stream included. Colonies with a slow step replaced on the
instance (guarded) never stack: the stack never calls a member's own
slow step, so lockstep refuses them and they run one at a time, replaced
step and all. TestLockstepHook checks the hook itself, and what a stack
and a lone colony read.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from instances import random_euclidean
from test_meta import QuadraticProbe, probe_rebuild

from cnets import aco, meta
from cnets.aco import AcoArchitecture, AcoParams, build_aco_network
from cnets.errors import CnError, NumericDivergenceError
from cnets.meta import evaluate_genome
from cnets.problems import TourGraph
from cnets.rng import RngStream, StreamGroup

SEEDS = st.integers(min_value=0, max_value=2**32)
# ordinary exponents, and large ones that underflow trails to zero
# (dead ends) or overflow them (divergence)
EXPONENTS = st.one_of(st.floats(0.0, 6.0), st.sampled_from([0.0, 60.0, 150.0, 400.0]))
GENOMES = st.fixed_dictionaries(
    {
        "alpha": EXPONENTS,
        "beta": EXPONENTS,
        "evaporation": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.99, 1.0])),
        "deposit": st.floats(0.01, 50.0),
    }
)


def guard(net, calls=None):
    """Replace the colony's slow step on the instance with one that checks its
    pheromone, and logs the network in calls. A guarded colony never stacks,
    so every guarded step runs on that colony alone."""
    original = net.slow

    def guarded(stream):
        original(stream)
        assert (net.pheromone > 0.0).all()
        if calls is not None:
            calls.append(net)

    net.slow = guarded


def colony_rebuild(n, ants, demon="off", guarded=False, draw_graph=False, graph_seed=0):
    fixed = random_euclidean(n, RngStream(graph_seed, 1))

    def rebuild(genome, rng):
        graph = random_euclidean(n, rng) if draw_graph else fixed
        net = build_aco_network(graph, AcoParams(ants=ants, demon=demon, **genome))
        if guarded:
            guard(net)
        return net

    return rebuild


def outcome(genomes, rebuild, steps, seeds):
    """The batch's fitnesses, or the error it raises."""
    try:
        return evaluate_genome(genomes, rebuild, steps, seeds)
    except CnError as exc:
        return type(exc), str(exc), exc.step_position


def one_at_a_time(genomes, rebuild, steps, seeds):
    try:
        return [evaluate_genome([genome], rebuild, steps, seeds)[0] for genome in genomes]
    except CnError as exc:
        return type(exc), str(exc), exc.step_position


@pytest.fixture
def inner_runs(monkeypatch):
    """What meta hands to core.run, network by network: "stack" for several
    colonies, "colony" for one, and any other architecture's class."""
    kinds = []
    original = meta.run

    def counting(net, *args):
        if isinstance(net, AcoArchitecture):
            kinds.append("stack" if len(net.colonies) > 1 else "colony")
        else:
            kinds.append(type(net))
        return original(net, *args)

    monkeypatch.setattr(meta, "run", counting)
    return kinds


@given(
    genomes=st.lists(GENOMES, min_size=2, max_size=5),
    seeds=st.lists(SEEDS, min_size=1, max_size=3, unique=True),
    n=st.integers(3, 12),
    ants=st.integers(1, 6),
    steps=st.integers(1, 6),
    demon=st.sampled_from(["off", "two-opt"]),
    guarded=st.booleans(),
    draw_graph=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_stacked_fitnesses_equal_one_at_a_time(
    genomes, seeds, n, ants, steps, demon, guarded, draw_graph
):
    rebuild = colony_rebuild(n, ants, demon, guarded, draw_graph, graph_seed=seeds[0])
    seeds = tuple(seeds)
    assert outcome(genomes, rebuild, steps, seeds) == one_at_a_time(
        genomes, rebuild, steps, seeds
    )


def test_a_batch_runs_one_stack_per_shared_problem(inner_runs):
    genomes = [{"alpha": a, "beta": b} for a, b in [(1.0, 2.0), (0.5, 3.0), (2.0, 1.0)]]
    shared = colony_rebuild(8, 5)
    stacked = evaluate_genome(genomes, shared, 10, (1, 2))
    assert inner_runs == ["stack"]  # the seeds share the graph, so one stack
    assert stacked == one_at_a_time(genomes, shared, 10, (1, 2))
    inner_runs.clear()
    drawn = colony_rebuild(8, 5, draw_graph=True)
    stacked = evaluate_genome(genomes, drawn, 10, (1, 2))
    assert inner_runs == ["stack", "stack"]  # a graph drawn per seed
    assert stacked == one_at_a_time(genomes, drawn, 10, (1, 2))


def test_stacks_are_split_at_the_size_bound(inner_runs, monkeypatch):
    genomes = [{"alpha": 0.25 * k} for k in range(1, 6)]
    rebuild = colony_rebuild(6, 4)
    # room for two colonies of 6 locations and 4 ants per stack
    monkeypatch.setattr(aco, "STACK_DOUBLES", 2 * 6 * (6 + 4))
    stacked = evaluate_genome(genomes, rebuild, 5, (3, 4))
    assert inner_runs == ["stack"] * 5  # one genome on both seeds per stack
    assert stacked == one_at_a_time(genomes, rebuild, 5, (3, 4))


def test_seeds_that_share_a_graph_share_a_stack(inner_runs):
    graphs = [random_euclidean(7, RngStream(k, 1)) for k in range(2)]

    def rebuild(genome, rng):
        graph = graphs[rng.seed % 2]
        return build_aco_network(graph, AcoParams(ants=4, **genome))

    genomes = [{"alpha": a, "beta": b} for a, b in [(1.0, 2.0), (0.5, 3.0), (2.0, 1.0)]]
    seeds = (1, 2, 3, 5)
    stacked = evaluate_genome(genomes, rebuild, 6, seeds)
    assert inner_runs == ["stack", "stack"]  # seeds 1, 3 and 5, then seed 2
    assert stacked == one_at_a_time(genomes, rebuild, 6, seeds)


@given(
    genomes=st.lists(
        st.fixed_dictionaries(
            {"alpha": st.floats(0.0, 6.0), "beta": st.floats(0.0, 6.0), "evaporation": st.floats(0.0, 1.0)}
        ),
        min_size=1,
        max_size=4,
    ),
    seeds=st.lists(SEEDS, min_size=1, max_size=4, unique=True),
    n=st.integers(3, 12),
    ants=st.integers(1, 6),
    steps=st.integers(1, 4),
    demon=st.sampled_from(["off", "two-opt"]),
)
@settings(max_examples=60, deadline=None)
def test_one_stack_over_seeds_equals_one_stack_per_seed(genomes, seeds, n, ants, steps, demon):
    graph = random_euclidean(n, RngStream(seeds[0], 1))

    def colonies():
        return [build_aco_network(graph, AcoParams(ants=ants, demon=demon, **g)) for g in genomes]

    alone = [(AcoArchitecture.lockstep(colonies()), RngStream(seed)) for seed in seeds]
    # every seed's colonies, seed by seed, each seed on its own stream
    together = AcoArchitecture.lockstep([net for _ in seeds for net in colonies()])
    group = StreamGroup([RngStream(seed) for seed in seeds])

    def colony_state(stacks):
        return [
            (path, length, tau.tobytes())
            for stack in stacks
            for path, length, tau in zip(
                stack.best.paths.tolist(), stack.best.lengths.tolist(), stack.pheromone
            )
        ]

    for _ in range(steps):
        together.fast(group)
        for stack, stream in alone:
            stack.fast(stream)
        walked = together.walked
        assert walked.paths.tolist() == [p for s, _ in alone for p in s.walked.paths.tolist()]
        assert walked.lengths.tobytes() == b"".join(s.walked.lengths.tobytes() for s, _ in alone)
        together.slow(group)
        for stack, stream in alone:
            stack.slow(stream)
        assert colony_state([together]) == colony_state([s for s, _ in alone])
    assert [float(s.uniform()) for s in group.streams] == [float(s.uniform()) for _, s in alone]


def test_a_failing_stack_gives_the_plain_error(inner_runs):
    # 10**400 overflows: that genome diverges at its first fast step
    genomes = [{"alpha": 1.0}, {"alpha": 400.0}, {"alpha": 2.0}]

    def rebuild(genome, rng):
        graph = random_euclidean(6, rng)
        return build_aco_network(graph, AcoParams(initial_pheromone=10.0, **genome))

    with pytest.raises(NumericDivergenceError) as stacked:
        evaluate_genome(genomes, rebuild, 3, (1,))
    assert inner_runs[0] == "stack"  # tried, then one at a time
    assert inner_runs[1:] == ["colony", "colony"]
    with pytest.raises(NumericDivergenceError) as alone:
        evaluate_genome(genomes[1:2], rebuild, 3, (1,))
    assert (str(stacked.value), stacked.value.step_position) == (
        str(alone.value),
        alone.value.step_position,
    )


def test_a_dead_end_in_the_stack_falls_back_to_restarts(inner_runs):
    # only the square's sides and two spokes carry pheromone, and alpha = 100
    # underflows the rest: some walks dead-end, and restarts (the colony's
    # own draws) get them out
    graph = TourGraph.from_coordinates([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, -0.5)])
    trails = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]

    def rebuild(genome, rng):
        params = AcoParams(alpha=100.0, ants=6, min_pheromone=1e-9, evaporation=0.0, **genome)
        net = build_aco_network(graph, params)
        tau = net.pheromone[0]
        tau[...] = 1e-9
        for a, b in trails:
            tau[a, b] = tau[b, a] = 1.0
        return net

    genomes = [{"beta": 1.0}, {"beta": 2.0}]
    stacked = evaluate_genome(genomes, rebuild, 2, (3,))
    assert inner_runs == ["stack", "colony", "colony"]
    assert stacked == one_at_a_time(genomes, rebuild, 2, (3,))


def test_a_replaced_slow_step_never_stacks(inner_runs):
    calls = []
    graph = random_euclidean(6, RngStream(5, 1))

    def rebuild(genome, rng):
        net = build_aco_network(graph, AcoParams(ants=4, **genome))
        guard(net, calls)
        return net

    genomes = [{"alpha": a, "beta": b} for a, b in [(1.0, 2.0), (0.5, 3.0), (2.0, 1.0)]]
    seeds, steps = (1, 2), 5
    values = evaluate_genome(genomes, rebuild, steps, seeds)
    assert inner_runs == ["colony"] * (len(genomes) * len(seeds))
    # the replaced step ran on every slow step of every inner run, on its own colony
    assert all(type(net) is AcoArchitecture and len(net.colonies) == 1 for net in calls)
    assert list(Counter(map(id, calls)).values()) == [steps] * len(inner_runs)
    assert values == one_at_a_time(genomes, rebuild, steps, seeds)


def test_genome_dependent_rebuild_draws_never_stack(inner_runs):
    def rebuild(genome, rng):
        graph = random_euclidean(5, RngStream(9))
        if genome["alpha"] > 1.0:
            rng.uniform()  # this genome's runs draw differently
        return build_aco_network(graph, AcoParams(**genome))

    genomes = [{"alpha": 0.5}, {"alpha": 1.5}]
    values = evaluate_genome(genomes, rebuild, 4, (1, 2))
    assert "stack" not in inner_runs
    assert values == one_at_a_time(genomes, rebuild, 4, (1, 2))


def test_a_non_colony_rebuild_never_stacks(inner_runs):
    genomes = [{"x": 0.1, "y": 0.2}, {"x": -0.5, "y": 0.0}, {"x": 0.3, "y": -0.1}]
    values = evaluate_genome(genomes, probe_rebuild, 2, (1, 2))
    assert set(inner_runs) == {QuadraticProbe}
    assert values == one_at_a_time(genomes, probe_rebuild, 2, (1, 2))


class TestLockstepHook:
    def colony(self, graph, **params):
        return build_aco_network(graph, AcoParams(**params))

    def test_colonies_stack_over_equal_graphs(self):
        graph = random_euclidean(5, RngStream(1))
        equal = TourGraph(graph.costs)
        nets = [self.colony(graph, alpha=1.0), self.colony(equal, alpha=2.0)]
        stack = AcoArchitecture.lockstep(nets)
        assert stack.colonies == (nets[0].colonies[0], nets[1].colonies[0])

    @pytest.mark.parametrize("other", ["graph", "ants", "subclass", "slow"])
    def test_unlike_colonies_do_not_stack(self, other):
        graph = random_euclidean(5, RngStream(1))
        nets = [self.colony(graph), self.colony(graph)]
        if other == "graph":
            nets[1] = self.colony(random_euclidean(5, RngStream(2)))
        elif other == "ants":
            nets[1] = self.colony(graph, ants=3)
        elif other == "slow":  # the stack would skip the replaced step
            guard(nets[1])
        else:

            class Variant(AcoArchitecture):
                pass

            nets[1].__class__ = Variant
        assert AcoArchitecture.lockstep(nets) is None

    def test_stacked_pheromone_starts_where_each_colony_would(self):
        graph = random_euclidean(5, RngStream(1))

        def colonies():
            nets = [self.colony(graph, initial_pheromone=2), self.colony(graph), self.colony(graph)]
            tau = nets[2].pheromone[0]
            tau[0, 1] = tau[1, 0] = 0.25  # before stacking
            return nets

        alone = [net.pheromone[0] for net in colonies()]
        nets = colonies()
        stack = AcoArchitecture.lockstep(nets)
        assert stack.pheromone.dtype == float
        assert stack.pheromone.tolist() == [tau.tolist() for tau in alone]
        # lockstep writes nothing into its members: an unbuilt pheromone stays unbuilt
        assert ["pheromone" in vars(net) for net in nets] == [False, False, True]
        stack.pheromone[2, 0, 1] = 7.0
        assert nets[2].pheromone[0, 0, 1] == 0.25

    def test_stack_bound_follows_the_problem_size(self):
        small = self.colony(random_euclidean(8, RngStream(1)), ants=10)
        assert small.lockstep_limit() == aco.STACK_DOUBLES // (8 * 18)
        assert small.lockstep_limit() * 8 * 18 * 8 <= 16 * 2**20

    def test_stacked_walk_matches_each_colony_walk(self):
        graph = random_euclidean(9, RngStream(4))
        params = [AcoParams(alpha=a, beta=b, ants=7) for a, b in [(1.0, 2.0), (3.0, 0.5), (0.0, 5.0)]]
        nets = [build_aco_network(graph, p) for p in params]
        for k, net in enumerate(nets):
            upper = np.triu(RngStream(k, 2).uniform(0.1, 3.0, size=(9, 9)), 1)
            net.pheromone[...] = upper + upper.T
        alone = [aco.construct_solutions(net, RngStream(6)) for net in nets]
        stack = AcoArchitecture.lockstep(nets)
        together = aco.construct_solutions(stack, RngStream(6))
        assert list(together) == [solution for solutions in alone for solution in solutions]

    def test_one_colony_reads_its_best_tour_and_params(self):
        graph = random_euclidean(6, RngStream(3))
        net = self.colony(graph, ants=4, demon="two-opt")
        assert (net.readout(), net.best_value()) == ([], None)
        assert net.parameters() == {
            "alpha": 1.0,
            "beta": 2.0,
            "evaporation": 0.1,
            "deposit": 1.0,
            "ants": 4.0,
            "initial_pheromone": 1.0,
            "min_pheromone": 1e-9,
            "demon": 1.0,
        }
        net.fast(RngStream(8))
        assert net.readout() == [float(v) for v in net.best.paths[0].tolist()]
        assert net.best_value() == net.best.lengths[0] == min(net.walked.lengths.tolist())

    def test_a_stack_reads_as_one_network(self):
        graph = random_euclidean(9, RngStream(3))
        nets = [self.colony(graph, alpha=a, beta=b, ants=2) for a, b in [(0.5, 0.0), (1.0, 2.0), (3.0, 5.0)]]
        stack = AcoArchitecture.lockstep(nets)

        def reads():
            return stack.readout(), stack.parameters(), stack.best_value()

        assert reads() == ([], {}, None)  # before any colony walks
        assert stack.best_values() == [None] * 3
        for net in nets:
            net.fast(RngStream(8))
        stack.fast(RngStream(8))
        alone = [net.best_value() for net in nets]
        assert stack.best_values() == alone
        assert reads() == ([], {}, min(alone))
        assert len(set(alone)) > 1  # the minimum is over colonies that differ
