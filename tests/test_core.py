import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from instances import random_euclidean, xor_dataset
from cnets.aco import AcoArchitecture, build_aco_network
from cnets.ann import build_ann, weight_vector
from cnets.core import (
    Architecture,
    ComputingNetwork,
    RunRecord,
    ScaleSchedule,
    fast_step,
    run,
    slow_step,
)
from cnets.eca import UpdateMode, build_eca_network, node_update_order
from cnets.errors import ConfigurationError, NumericDivergenceError
from cnets.problems import Dataset, Tape, named_objective
from cnets.pso import PsoParams, build_pso_network
from cnets.rng import RngStream


class CounterArchitecture:
    """Minimal architecture for exercising the generic driver.

    One value per node; fast adds 1.0 to every value, slow decays all
    values toward 0. It defines only the Architecture protocol's
    members, so core.run needs nothing more.
    """

    kind = "counter"
    allow_hyperedges = False
    directed = False

    def __init__(self, n=3, problem=None):
        self.problem = problem
        self.values = np.zeros(n)
        self.fast_calls = 0
        self.slow_calls = 0

    def fast(self, net, rng):
        self.fast_calls += 1
        self.values += 1.0

    def readout(self, net):
        return self.values.tolist()

    def slow(self, net, rng):
        self.slow_calls += 1
        self.values *= 0.5

    def best_value(self, net):
        return float(self.values.sum())

    def parameters(self, net):
        return {"decay": 0.5}


def counter_net(n=3, problem=None):
    return ComputingNetwork(CounterArchitecture(n=n, problem=problem))


def chain(n):
    return np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)


class GraphArchitecture(CounterArchitecture):
    """A counter whose substrate() returns the given endpoint array over n nodes."""

    def __init__(self, n, edges, allow_hyperedges=False):
        super().__init__(n=n)
        self.graph_edges = edges
        self.allow_hyperedges = allow_hyperedges

    def substrate(self):
        return len(self.values), self.graph_edges


class TestScaleSchedule:
    def test_defaults_are_two_scale(self):
        schedule = ScaleSchedule()
        assert schedule.fast_steps_per_slow == 1
        assert schedule.slow_steps == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fast_steps_per_slow": 0},
            {"fast_steps_per_slow": -1},
            {"slow_steps": -1},
        ],
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScaleSchedule(**kwargs)


class TestNetworkValidation:
    def test_edge_needs_two_endpoints(self):
        net = ComputingNetwork(GraphArchitecture(1, np.array([[0]])))
        with pytest.raises(ConfigurationError, match=r"^edge 0 has 1 endpoints; need >= 2$"):
            net.edges

    def test_unknown_endpoint_rejected(self):
        net = ComputingNetwork(GraphArchitecture(1, np.array([[0, 5]])))
        with pytest.raises(ConfigurationError, match=r"^edge 0 references unknown node ids \[5\]$"):
            net.edges

    @pytest.mark.parametrize(
        "nodes, edges, message",
        [
            (3, [[0, 1], [-1, 2]], "edge 1 references unknown node ids [-1]"),
            (3, [[0, 1], [1, 1]], "edge 1 has 1 endpoints; need >= 2"),
            (3, [[0, 1, 1], [2, 2, 2]], "edge 1 has 1 endpoints; need >= 2"),
            (3, [[0, 1, 1], [0, 9, 9], [1, 1, 1]], "edge 1 references unknown node ids [9]"),
            (
                3,
                [[0, 1, 1], [0, 1, 7], [0, 1, 2]],
                "edge 1 is a hyperedge but architecture 'counter' does not allow them",
            ),
        ],
        ids=["negative", "loop", "padded-loop", "first-bad-edge", "first-failed-check"],
    )
    def test_refusal_names_the_first_bad_edge(self, nodes, edges, message):
        net = ComputingNetwork(GraphArchitecture(nodes, np.array(edges)))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            net.edges

    def test_hyperedge_needs_permission(self):
        edges = np.array([[0, 1, 2]])
        net = ComputingNetwork(GraphArchitecture(3, edges))
        with pytest.raises(ConfigurationError, match="does not allow them"):
            net.edges
        net = ComputingNetwork(GraphArchitecture(3, edges, allow_hyperedges=True))
        assert len(set(net.edges[0].tolist())) == 3
        assert net.nodes == range(3)

    def test_a_padded_pair_is_a_plain_edge(self):
        net = ComputingNetwork(GraphArchitecture(3, np.array([[0, 1, 1], [1, 2, 2]])))
        assert [set(row) for row in net.edges.tolist()] == [{0, 1}, {1, 2}]

    def test_no_edges_is_a_graph(self):
        net = ComputingNetwork(GraphArchitecture(2, np.empty((0, 2), dtype=int)))
        assert net.edges.shape == (0, 2)
        assert net.nodes == range(2)

    def test_edges_are_built_once_and_read_only(self):
        net = ComputingNetwork(GraphArchitecture(4, chain(4)))
        assert net.edges is net.edges
        with pytest.raises(ValueError):
            net.edges[0, 0] = 3


def ann_edges(sizes):
    """Every synapse in edge-id order, as the per-edge loop built them."""
    edges, base = [], 0
    for k in range(len(sizes) - 1):
        for j in range(sizes[k + 1]):
            for i in range(sizes[k]):
                edges.append((base + i, base + sizes[k] + j))
        base += sizes[k]
    return edges


def eca_edges(n, periodic):
    return [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if periodic else [])


def pso_edges(neighborhoods):
    """One row per distinct neighborhood, ascending, padded by its last member."""
    distinct = list(dict.fromkeys(tuple(sorted(set(m))) for m in neighborhoods))
    width = max(map(len, distinct))
    return [m + m[-1:] * (width - len(m)) for m in distinct]


def swarm(particles, topology, neighborhoods=None):
    params = PsoParams(particles=particles, topology=topology, neighborhoods=neighborhoods)
    return build_pso_network(named_objective("sphere", 2), RngStream(0), params)


def blank_dataset(inputs, targets):
    return Dataset(inputs=np.zeros((2, inputs)), targets=np.zeros((2, targets)))


MIXED = ((0, 1), (0, 1, 2), (3, 1, 2), (2, 3), (4, 0, 2, 3))


class TestSubstrateArrays:
    """Each architecture's endpoint array against the scalar per-edge loop."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            (
                lambda: build_aco_network(random_euclidean(7, RngStream(0))),
                list(combinations(range(7), 2)),
            ),
            (
                lambda: build_ann((3, 5, 4, 2), blank_dataset(3, 2), RngStream(0)),
                ann_edges((3, 5, 4, 2)),
            ),
            (
                lambda: build_ann((2, 1), blank_dataset(2, 1), RngStream(0)),
                ann_edges((2, 1)),
            ),
            (lambda: build_eca_network(Tape.single_one(6), 30), eca_edges(6, False)),
            (
                lambda: build_eca_network(Tape.single_one(6, boundary="periodic"), 30),
                eca_edges(6, True),
            ),
            (
                lambda: swarm(6, "ring"),
                pso_edges([((i - 1) % 6, i, (i + 1) % 6) for i in range(6)]),
            ),
            (lambda: swarm(2, "ring"), pso_edges([(0, 1), (0, 1)])),
            (lambda: swarm(5, "global"), pso_edges([range(5)] * 5)),
            (lambda: swarm(5, "custom", MIXED), pso_edges(MIXED)),
        ],
        ids=[
            "aco",
            "ann-deep",
            "ann-single",
            "eca-fixed",
            "eca-periodic",
            "pso-ring",
            "pso-ring-of-two",
            "pso-global",
            "pso-custom-mixed",
        ],
    )
    def test_endpoints_match_the_scalar_loops(self, build, expected):
        net = build()
        assert net.edges.dtype.kind == "i"
        assert net.edges.tolist() == [list(edge) for edge in expected]
        assert net.arch.directed == (net.arch.kind == "ann")

    def test_ann_edge_ids_index_the_weight_vector(self):
        sizes = (3, 5, 4, 2)
        net = build_ann(sizes, blank_dataset(3, 2), RngStream(0))
        weights = weight_vector(net)
        flat = {(src, dst): w for (src, dst), w in zip(net.edges.tolist(), weights)}
        for k, block in enumerate(net.arch.weights):
            base = sum(sizes[:k])
            for j, i in np.ndindex(block.shape):
                assert flat[(base + i, base + sizes[k] + j)] == block[j, i]


class TestProtocol:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_ann((2, 2, 1), xor_dataset(), RngStream(0)),
            lambda: build_aco_network(random_euclidean(5, RngStream(0))),
            lambda: AcoArchitecture.lockstep(
                [build_aco_network(random_euclidean(5, RngStream(0))) for _ in range(2)]
            ),
            lambda: build_pso_network(named_objective("sphere", 2), RngStream(0)),
            lambda: build_eca_network(Tape.single_one(5), 110),
            counter_net,
        ],
        ids=["ann", "aco", "colony-stack", "pso", "eca", "counter"],
    )
    def test_every_architecture_is_one(self, build):
        assert isinstance(build().arch, Architecture)


class TestFastSlowSteps:
    def test_fast_step_returns_readout(self):
        net = counter_net(n=2)
        fast_step(net, RngStream(0))
        out = fast_step(net, RngStream(0))
        assert out == [2.0, 2.0]

    def test_non_finite_readout_raises(self):
        net = counter_net(n=1)
        net.arch.values[0] = float("inf")
        with pytest.raises(NumericDivergenceError):
            fast_step(net, RngStream(0))

    def test_non_finite_readout_error_names_the_first_bad_value(self):
        net = counter_net(n=3)
        net.arch.values[1:] = [float("-inf"), float("nan")]
        with pytest.raises(NumericDivergenceError, match=r"non-finite value -inf$"):
            fast_step(net, RngStream(0))

    def test_slow_step_returns_same_network(self):
        net = counter_net()
        assert slow_step(net, RngStream(0)) is net

    def test_readout_is_pure(self):
        net = counter_net(n=2)
        fast_step(net, RngStream(0))
        assert net.arch.readout(net) == net.arch.readout(net)

    def test_slow_step_applies_adaptation(self):
        net = counter_net(n=1)
        net.arch.values[0] = 4.0
        slow_step(net, RngStream(0))
        assert net.arch.values[0] == 2.0


class TestRun:
    def test_degenerate_schedule_yields_only_initial_record(self):
        net = counter_net()
        records = run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=0), None, RngStream(0))
        assert len(records) == 1
        assert records[0].slow_step == 0
        assert net.arch.fast_calls == 0

    def test_record_count_and_step_budget(self):
        net = counter_net()
        records = run(net, ScaleSchedule(fast_steps_per_slow=3, slow_steps=5), None, RngStream(0))
        assert len(records) == 6
        assert [r.slow_step for r in records] == list(range(6))
        assert net.arch.fast_calls == 15
        assert net.arch.slow_calls == 5

    def test_topology_conserved_across_run(self):
        net = ComputingNetwork(GraphArchitecture(4, chain(4)))
        before = (len(net.nodes), len(net.edges), net.edges.tolist())
        run(net, ScaleSchedule(1, 10), None, RngStream(0))
        after = (len(net.nodes), len(net.edges), net.edges.tolist())
        assert before == after

    def test_records_carry_parameter_snapshot(self):
        net = counter_net()
        records = run(net, ScaleSchedule(1, 2), None, RngStream(0))
        assert all(r.parameter_snapshot == {"decay": 0.5} for r in records)

    def test_problem_mismatch_rejected(self):
        net = counter_net(problem="expected")
        with pytest.raises(ConfigurationError):
            run(net, ScaleSchedule(1, 1), "other", RngStream(0))

    def test_errors_carry_step_position(self):
        class Exploding(CounterArchitecture):
            def fast(self, net, rng):
                super().fast(net, rng)
                if self.fast_calls == 5:
                    raise NumericDivergenceError("boom")

        net = ComputingNetwork(Exploding(n=1))
        with pytest.raises(NumericDivergenceError) as excinfo:
            run(net, ScaleSchedule(fast_steps_per_slow=3, slow_steps=4), None, RngStream(0))
        # 5th fast call = slow step 2, fast index 1
        assert excinfo.value.step_position == (2, 1)

        class ExplodingSlow(CounterArchitecture):
            def slow(self, net, rng):
                super().slow(net, rng)
                if self.slow_calls == 3:
                    raise NumericDivergenceError("boom")

        net = ComputingNetwork(ExplodingSlow(n=1))
        with pytest.raises(NumericDivergenceError) as excinfo:
            run(net, ScaleSchedule(fast_steps_per_slow=3, slow_steps=4), None, RngStream(0))
        assert excinfo.value.step_position == (3, None)

        class ExplodingSnapshot(CounterArchitecture):
            def best_value(self, net):
                raise NumericDivergenceError("boom")

        net = ComputingNetwork(ExplodingSnapshot(n=1))
        with pytest.raises(NumericDivergenceError) as excinfo:
            run(net, ScaleSchedule(fast_steps_per_slow=3, slow_steps=4), None, RngStream(0))
        # the initial record is made before any step
        assert excinfo.value.step_position == (0, None)
        assert net.arch.fast_calls == 0

    def test_wall_clock_is_nonnegative(self):
        net = counter_net()
        records = run(net, ScaleSchedule(1, 3), None, RngStream(0))
        assert all(r.wall_clock_ms >= 0.0 for r in records)


class TestUpdateOrder:
    def test_synchronous_and_fixed_are_identity_order(self):
        for mode in (UpdateMode.SYNCHRONOUS, UpdateMode.ASYNC_FIXED):
            assert node_update_order(5, mode, None) == [0, 1, 2, 3, 4]

    def test_random_order_needs_rng(self):
        with pytest.raises(ConfigurationError):
            node_update_order(5, UpdateMode.ASYNC_RANDOM, None)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
    def test_random_order_is_a_permutation(self, n, seed):
        order = node_update_order(n, UpdateMode.ASYNC_RANDOM, RngStream(seed))
        assert sorted(order) == list(range(n))
