"""The array-resident swarm and the stacked network pass against their oracles.

Equality here is exact: the same positions, velocities, values and
bests after every step, the same random stream afterwards, and for a
swarm over network weights the same mean squared error as installing
each vector and running the network once per vector. That is what
keeps record files byte-identical.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import pso_oracle as oracle
from cnets.ann import AnnParams, batch_mse, build_ann, population_mse, set_weight_vector
from cnets.problems import Dataset, Objective, named_objective
from cnets.pso import (
    PsoParams,
    build_pso_network,
    evaluate,
    global_best,
    move,
    refresh_neighborhoods,
)
from cnets.rng import RngStream

SEEDS = st.integers(min_value=0, max_value=2**32)
KINDS = st.sampled_from(["tanh", "logistic", "identity"])


@st.composite
def swarms(draw):
    n = draw(st.integers(2, 40))
    topology = draw(st.sampled_from(["ring", "global", "custom"]))
    neighborhoods = None
    if topology == "custom":
        # unsorted, with duplicates: each holds its particle and one other
        neighborhoods = []
        for i in range(n):
            other = draw(st.integers(0, n - 2))
            extra = draw(st.lists(st.integers(0, n - 1), max_size=6))
            members = [i, other if other < i else other + 1, *extra, i]
            neighborhoods.append(tuple(draw(st.permutations(members))))
        neighborhoods = tuple(neighborhoods)
    clamp = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    params = PsoParams(
        particles=n,
        topology=topology,
        neighborhoods=neighborhoods,
        velocity_clamp=clamp,
        inertia=draw(st.floats(-1.0, 1.2)),
        cognitive=draw(st.floats(0.0, 2.5)),
        social=draw(st.floats(0.0, 2.5)),
    )
    name = draw(st.sampled_from(["sphere", "rosenbrock", "rastrigin"]))
    # rosenbrock needs two dimensions; the others take one
    objective = named_objective(name, draw(st.integers(1 + (name == "rosenbrock"), 60)))
    return objective, params, draw(SEEDS)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(net, reference):
    particles = [node.payload for node in reference.nodes]
    assert same_bits(net.positions, [p.position for p in particles])
    assert same_bits(net.velocities, [p.velocity for p in particles])
    assert same_bits(net.best_positions, [p.best_position for p in particles])
    assert same_bits(net.best_values, [p.best_value for p in particles])
    assert same_bits(
        net.neighborhood_bests, [edge.payload.best_position for edge in reference.edges]
    )
    assert [tuple(sorted(set(row))) for row in net.edges.tolist()] == [
        e.endpoints for e in reference.edges
    ]
    position, value = global_best(net)
    expected_position, expected_value = oracle.global_best(reference)
    assert same_bits(position, expected_position) and value == expected_value


@given(case=swarms(), steps=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_swarm_matches_the_oracle_step_by_step(case, steps):
    objective, params, seed = case
    rng, oracle_rng = RngStream(seed), RngStream(seed)
    net = build_pso_network(objective, rng, params)
    reference = oracle.build_pso_network(objective, oracle_rng, params)
    assert_same_state(net, reference)
    for _ in range(steps):
        evaluate(net, objective)
        oracle.evaluate(reference, objective)
        refresh_neighborhoods(net)
        oracle.refresh_neighborhoods(reference)
        move(net, params, rng)
        oracle.move(reference, params, oracle_rng)
        assert_same_state(net, reference)
    assert float(rng.uniform()) == float(oracle_rng.uniform())


@given(
    particles=st.integers(2, 40),
    dimension=st.integers(1, 60),
    ties=st.floats(0.0, 1.0),
    seed=SEEDS,
)
@settings(max_examples=100, deadline=None)
def test_evaluate_updates_bests_as_the_full_select_did(particles, dimension, ties, seed):
    """Writing only the improved personal bests has the bits of selecting every
    row with np.where; an equal value is no improvement."""
    rng = RngStream(seed)
    values = rng.uniform(-1.0, 1.0, size=particles)
    objective = Objective(
        name="drawn", dimension=dimension, lower=-1.0, upper=1.0, fn=lambda _: values
    )
    net = build_pso_network(objective, rng, PsoParams(particles=particles))
    net.positions = rng.uniform(-1.0, 1.0, size=(particles, dimension))
    drawn = rng.uniform(-1.0, 1.0, size=particles)
    values = np.where(rng.uniform(size=particles) < ties, net.best_values, drawn)
    better = values < net.best_values
    expected_values = np.where(better, values, net.best_values)
    expected_positions = np.where(better[:, None], net.positions, net.best_positions)
    evaluate(net, objective)
    assert same_bits(net.best_values, expected_values)
    assert same_bits(net.best_positions, expected_positions)


@given(
    hidden=st.lists(st.integers(1, 16), min_size=1, max_size=3),
    inputs=st.integers(1, 6),
    outputs=st.integers(1, 4),
    samples=st.integers(1, 299),
    particles=st.integers(2, 40),
    hidden_kind=KINDS,
    output_kind=KINDS,
    seed=SEEDS,
)
@settings(max_examples=100, deadline=None)
def test_population_mse_matches_installing_each_vector(
    hidden, inputs, outputs, samples, particles, hidden_kind, output_kind, seed
):
    rng = RngStream(seed)
    data = rng.uniform(-1.0, 1.0, size=(samples, inputs + outputs))
    dataset = Dataset(inputs=data[:, :inputs], targets=data[:, inputs:])
    net = build_ann(
        (inputs, *hidden, outputs),
        dataset,
        rng,
        AnnParams(hidden_activation=hidden_kind, output_activation=output_kind),
    )
    vectors = rng.uniform(-2.0, 2.0, size=(particles, net.topology.parameter_count))
    values = population_mse(net, dataset, vectors)
    expected = []
    for vector in vectors:
        set_weight_vector(net, vector)
        expected.append(batch_mse(net, dataset))
    assert same_bits(values, expected)
