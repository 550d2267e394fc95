import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnets.core import ScaleSchedule, run
from cnets.errors import ConfigurationError, NumericDivergenceError
from cnets.problems import Objective, named_objective
from cnets.pso import (
    PsoParams,
    build_pso_network,
    evaluate,
    global_best,
    move,
    refresh_neighborhoods,
)
from cnets.rng import RngStream
from pso_oracle import ring_distance


def sphere_swarm(particles=6, dimension=2, seed=1, **kwargs):
    objective = named_objective("sphere", dimension)
    params = PsoParams(particles=particles, **kwargs)
    return build_pso_network(objective, RngStream(seed), params), objective


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inertia": float("nan")},
            {"cognitive": -0.1},
            {"social": -1.0},
            {"velocity_clamp": -0.5},
            {"particles": 1},
            {"topology": "star"},
            {"topology": "custom"},
            {"topology": "custom", "particles": 3, "neighborhoods": ((0, 1), (1,), (2, 0))},
            {"topology": "custom", "particles": 3, "neighborhoods": ((0, 1), (1, 2), (2, 5))},
            {"topology": "custom", "particles": 3, "neighborhoods": ((0, 1), (0, 2), (2, 0))},
            {"topology": "ring", "neighborhoods": ((0, 1), (0, 1))},
            {"inertia": float("inf")},
            {"cognitive": float("nan")},
            {"cognitive": float("inf")},
            {"social": float("nan")},
            {"social": float("inf")},
            {"velocity_clamp": float("nan")},
            {"velocity_clamp": float("inf")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PsoParams(**kwargs)

    @pytest.mark.parametrize("name", ["inertia", "cognitive", "social", "velocity_clamp"])
    def test_non_finite_weight_is_named(self, name):
        with pytest.raises(ConfigurationError, match=f"^{name}: must be finite, got nan$"):
            PsoParams(**{name: float("nan")})

    def test_defaults_are_valid(self):
        PsoParams()


class TestRingDistance:
    def test_wraps_around(self):
        assert ring_distance(5, 2, 9 % 5) == 2
        assert ring_distance(5, 0, 4) == 1
        assert ring_distance(6, 0, 3) == 3

    def test_symmetric(self):
        assert ring_distance(7, 2, 5) == ring_distance(7, 5, 2)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=39),
    )
    def test_is_a_metric_on_the_ring(self, n, i, j):
        i, j = i % n, j % n
        d = ring_distance(n, i, j)
        assert 0 <= d <= n // 2
        assert (d == 0) == (i == j)
        assert d == ring_distance(n, j, i)


class TestTopologies:
    def test_ring_makes_one_edge_per_particle(self):
        net, _ = sphere_swarm(particles=5, topology="ring")
        assert len(net.edges) == 5
        assert sorted(net.edges[0].tolist()) == [0, 1, 4]

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_ring_neighbors_are_within_one_hop(self, n):
        net, _ = sphere_swarm(particles=n, topology="ring")
        for i in range(n):
            members = net.edges[net.arch.edge_of_particle[i]].tolist()
            assert members == [j for j in range(n) if ring_distance(n, i, j) <= 1]

    def test_global_collapses_to_one_hyperedge(self):
        net, _ = sphere_swarm(particles=5, topology="global")
        assert len(net.edges) == 1
        assert net.edges[0].tolist() == list(range(5))
        assert net.arch.edge_of_particle.tolist() == [0] * 5

    def test_custom_neighborhoods_are_honored(self):
        net, _ = sphere_swarm(
            particles=4,
            topology="custom",
            neighborhoods=((0, 1), (0, 1), (2, 3), (2, 3)),
        )
        assert len(net.edges) == 2
        assert net.arch.edge_of_particle.tolist() == [0, 0, 1, 1]
        assert net.edges.tolist() == [[0, 1], [2, 3]]


class TestEvaluation:
    def test_personal_bests_seeded_at_build(self):
        net, objective = sphere_swarm()
        arch = net.arch
        for i, position in enumerate(arch.positions):
            assert arch.best_values[i] == objective(position)
        assert np.array_equal(arch.best_positions, arch.positions)

    def test_personal_best_only_improves_strictly(self):
        net, objective = sphere_swarm(particles=3, dimension=1)
        arch = net.arch
        arch.best_values[0] = 1.0
        arch.best_positions[0] = [1.0]
        arch.positions[0] = [-1.0]  # same value: no update
        evaluate(net, objective)
        assert arch.best_positions[0, 0] == 1.0
        arch.positions[0] = [0.5]  # better: update
        evaluate(net, objective)
        assert arch.best_values[0] == 0.25
        assert arch.best_positions[0, 0] == 0.5

    def test_non_finite_value_raises(self):
        spike = Objective(
            name="spike",
            dimension=1,
            lower=-1.0,
            upper=1.0,
            fn=lambda x: np.full(len(x), np.nan),
        )
        net = build_pso_network(
            named_objective("sphere", 1), RngStream(1), PsoParams(particles=2)
        )
        with pytest.raises(NumericDivergenceError):
            evaluate(net, spike)

    def test_divergence_names_the_lowest_non_finite_particle(self):
        def spikes(x):
            values = np.sum(x * x, axis=-1)
            values[[3, 5]] = [np.inf, np.nan]
            return values

        net, _ = sphere_swarm(particles=7)
        spike = Objective(name="spikes", dimension=2, lower=-1.0, upper=1.0, fn=spikes)
        with pytest.raises(
            NumericDivergenceError, match=r"^particle 3 produced non-finite value inf$"
        ):
            evaluate(net, spike)

    def test_objective_must_return_one_value_per_particle(self):
        net, _ = sphere_swarm(particles=4)
        total = Objective(
            name="total", dimension=2, lower=-1.0, upper=1.0, fn=lambda x: np.sum(x * x)
        )
        with pytest.raises(ConfigurationError, match="returned shape"):
            evaluate(net, total)

    def test_neighborhood_best_ties_to_lowest_id(self):
        # the second neighborhood, (1, 2), is padded to (1, 2, 2)
        net, _ = sphere_swarm(
            particles=3,
            dimension=1,
            topology="custom",
            neighborhoods=((0, 1, 2), (2, 1), (1, 2, 2)),
        )
        arch = net.arch
        arch.best_values[:] = [3.0, 2.0, 2.0]
        arch.best_positions[:, 0] = [0.0, 1.0, 2.0]
        refresh_neighborhoods(net)
        assert arch.members.tolist() == [[0, 1, 2], [1, 2, 2]]
        assert arch.neighborhood_bests[:, 0].tolist() == [1.0, 1.0]


class TestMove:
    def test_pure_inertia_drift(self):
        net, _ = sphere_swarm(particles=2, dimension=1, cognitive=0.0, social=0.0, inertia=1.0)
        arch = net.arch
        arch.positions[0] = [1.0]
        arch.velocities[0] = [0.25]
        refresh_neighborhoods(net)
        move(net, arch.params, RngStream(9))
        assert arch.positions[0, 0] == 1.25
        assert arch.velocities[0, 0] == 0.25

    def test_attraction_points_toward_bests(self):
        net, _ = sphere_swarm(particles=2, dimension=1, inertia=0.0)
        arch = net.arch
        arch.positions[0] = [3.0]
        arch.velocities[0] = [0.0]
        arch.best_positions[0] = [0.0]
        arch.best_values[0] = 0.0
        refresh_neighborhoods(net)
        move(net, arch.params, RngStream(9))
        assert arch.velocities[0, 0] <= 0.0  # both pulls aim at the origin side

    def test_velocity_clamp_bounds_components(self):
        net, _ = sphere_swarm(particles=4, dimension=3, velocity_clamp=0.05)
        for _ in range(5):
            refresh_neighborhoods(net)
            move(net, net.arch.params, RngStream(3))
        assert np.all(np.abs(net.arch.velocities) <= 0.05)

    def test_draw_order_is_cognitive_then_social_per_particle(self):
        net, _ = sphere_swarm(particles=2, dimension=2, inertia=0.0)
        arch = net.arch
        arch.positions[:] = 1.0
        arch.velocities[:] = 0.0
        arch.best_positions[:] = 0.0
        arch.best_values[:] = 0.0
        refresh_neighborhoods(net)
        rng = RngStream(77)
        reference = []
        mirror = RngStream(77)
        for _ in range(2):
            r_cog = mirror.uniform(0.0, 1.0, size=2)
            r_soc = mirror.uniform(0.0, 1.0, size=2)
            reference.append(-(1.49 * r_cog + 1.49 * r_soc))
        move(net, arch.params, rng)
        for velocity, expected in zip(arch.velocities, reference):
            assert velocity == pytest.approx(expected)


class TestSwarmRuns:
    def test_global_best_is_non_increasing(self):
        net, objective = sphere_swarm(particles=8, dimension=3, seed=5)
        records = run(
            net,
            ScaleSchedule(fast_steps_per_slow=1, slow_steps=30),
            objective,
            RngStream(6),
        )
        values = [r.best_value for r in records]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_sphere_swarm_converges_reasonably(self):
        net, objective = sphere_swarm(particles=12, dimension=2, seed=7)
        records = run(
            net,
            ScaleSchedule(fast_steps_per_slow=1, slow_steps=60),
            objective,
            RngStream(8),
        )
        assert records[-1].best_value < records[0].best_value * 0.05

    def test_readout_is_the_global_best_position(self):
        net, objective = sphere_swarm(particles=5, dimension=2, seed=9)
        records = run(
            net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=5), objective, RngStream(10)
        )
        position, value = global_best(net)
        assert records[-1].network_output == pytest.approx(list(position))
        assert records[-1].best_value == value

    def test_run_is_seed_deterministic(self):
        def final(seed):
            net, objective = sphere_swarm(particles=6, dimension=2, seed=seed)
            records = run(
                net,
                ScaleSchedule(fast_steps_per_slow=1, slow_steps=20),
                objective,
                RngStream(seed + 1),
            )
            return records[-1].best_value

        assert final(3) == final(3)

    def test_problem_mismatch_rejected(self):
        net, _ = sphere_swarm()
        other = named_objective("rastrigin", 2)
        with pytest.raises(ConfigurationError):
            run(net, ScaleSchedule(fast_steps_per_slow=1, slow_steps=1), other, RngStream(0))
