import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnets.aco import AcoArchitecture, build_aco_network
from cnets.ann import build_ann
from cnets.core import (
    Architecture,
    ComputingNetwork,
    EdgeState,
    RunRecord,
    ScaleSchedule,
    fast_step,
    run,
    slow_step,
)
from cnets.eca import UpdateMode, build_eca_network, node_update_order
from cnets.errors import ConfigurationError, NumericDivergenceError
from cnets.problems import Tape, TourGraph, named_objective, xor_dataset
from cnets.pso import build_pso_network
from cnets.rng import RngStream


class CounterArchitecture:
    """Minimal architecture for exercising the generic driver.

    One value per node; fast adds 1.0 to every value, slow decays all
    values toward 0. It defines only the Architecture protocol's
    members, so core.run needs nothing more.
    """

    kind = "counter"
    allow_hyperedges = False

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
    return [EdgeState(id=i, endpoints=(i, i + 1), directed=False) for i in range(n - 1)]


class GraphArchitecture(CounterArchitecture):
    """A counter whose substrate() returns the given edges over n nodes."""

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
        edges = [EdgeState(id=0, endpoints=(0,), directed=False)]
        net = ComputingNetwork(GraphArchitecture(1, edges))
        with pytest.raises(ConfigurationError):
            net.edges

    def test_unknown_endpoint_rejected(self):
        edges = [EdgeState(id=0, endpoints=(0, 5), directed=False)]
        net = ComputingNetwork(GraphArchitecture(1, edges))
        with pytest.raises(ConfigurationError):
            net.edges

    def test_hyperedge_needs_permission(self):
        edges = [EdgeState(id=0, endpoints=(0, 1, 2), directed=False)]
        net = ComputingNetwork(GraphArchitecture(3, edges))
        with pytest.raises(ConfigurationError):
            net.edges
        net = ComputingNetwork(GraphArchitecture(3, edges, allow_hyperedges=True))
        assert len(net.edges[0].endpoints) == 3
        assert net.nodes == range(3)


class TestProtocol:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_ann((2, 2, 1), xor_dataset(), RngStream(0)),
            lambda: build_aco_network(TourGraph.random_euclidean(5, RngStream(0))),
            lambda: AcoArchitecture.lockstep(
                [build_aco_network(TourGraph.random_euclidean(5, RngStream(0))) for _ in range(2)]
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
        before = (len(net.nodes), len(net.edges), [e.endpoints for e in net.edges])
        run(net, ScaleSchedule(1, 10), None, RngStream(0))
        after = (len(net.nodes), len(net.edges), [e.endpoints for e in net.edges])
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
