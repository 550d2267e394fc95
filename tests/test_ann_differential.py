"""The array-resident feedforward network against its payload oracle.

Equality here is exact: the same initial weights, the same random
stream afterwards, the same outputs and per-layer values of every
evaluation, and the same errors and weights after training, which is
what keeps record files byte-identical.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ann_oracle as oracle
from cnets.ann import (
    AnnParams, batch_mse, build_ann, forward, gradients, train_step, weight_vector,
)
from cnets.problems import Dataset
from cnets.rng import RngStream

KINDS = st.sampled_from(["tanh", "logistic", "identity"])
SEEDS = st.integers(min_value=0, max_value=2**32)


def random_dataset(sizes, samples, seed) -> Dataset:
    data = RngStream(seed).uniform(-1.0, 1.0, size=(samples, sizes[0] + sizes[-1]))
    return Dataset(inputs=data[:, : sizes[0]], targets=data[:, sizes[0] :])


@st.composite
def networks(draw):
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    sizes = (draw(st.integers(1, 6)), *hidden, draw(st.integers(1, 4)))
    dataset = random_dataset(sizes, draw(st.integers(1, 8)), draw(SEEDS))
    return sizes, dataset, draw(KINDS), draw(KINDS), draw(SEEDS)


def both(sizes, dataset, hidden, output, seed):
    """The network and its oracle, built from equal streams; and those streams."""
    rng, oracle_rng = RngStream(seed), RngStream(seed)
    net = build_ann(sizes, dataset, rng, AnnParams(hidden_activation=hidden, output_activation=output))
    reference = oracle.build_ann(sizes, oracle_rng, hidden_activation=hidden, output_activation=output)
    return net, reference, rng, oracle_rng


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(case=networks())
@settings(max_examples=60, deadline=None)
def test_build_draws_the_same_weights_and_leaves_the_same_stream(case):
    net, reference, rng, oracle_rng = both(*case)
    assert same_bits(weight_vector(net), oracle.weight_vector(reference))
    assert float(rng.uniform()) == float(oracle_rng.uniform())
    assert int(rng.integers(0, 2**31)) == int(oracle_rng.integers(0, 2**31))


@given(case=networks())
@settings(max_examples=60, deadline=None)
def test_forward_matches_every_layer(case):
    net, reference, _, _ = both(*case)
    dataset = case[1]
    topo = net.topology
    for sample in dataset.inputs:
        assert forward(net, sample) == oracle.forward(reference, sample)
        for k in range(topo.depth):
            payloads = [
                reference.nodes[topo.node_base(k) + j].payload
                for j in range(topo.layer_sizes[k])
            ]
            assert same_bits(net.outputs[k], [p.output for p in payloads])
    assert batch_mse(net, dataset) == oracle.batch_mse(reference, dataset)


@given(
    case=networks(),
    learning_rate=st.floats(1e-3, 0.5),
    steps=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_training_matches(case, learning_rate, steps):
    net, reference, _, _ = both(*case)
    dataset = case[1]
    for _ in range(steps):
        assert train_step(net, dataset, learning_rate) == oracle.train_step(
            reference, dataset, learning_rate
        )
        assert same_bits(weight_vector(net), oracle.weight_vector(reference))
    assert batch_mse(net, dataset) == oracle.batch_mse(reference, dataset)


@pytest.mark.parametrize("hidden", ["tanh", "logistic", "identity"])
@pytest.mark.parametrize("output", ["tanh", "logistic", "identity"])
def test_benchmark_shape_trains_like_the_oracle_through_its_workspace(hidden, output):
    """The backprop workload's shape, on 256 samples and then on 100, which
    rebuilds the workspace; gradients returned by one call are not changed
    by the next call, which reuses the workspace on other data."""
    sizes = (16, 64, 64, 4)
    net, reference, _, _ = both(sizes, random_dataset(sizes, 256, 1), hidden, output, 7)
    for dataset in (random_dataset(sizes, 256, 1), random_dataset(sizes, 100, 2)):
        for _ in range(3):
            assert train_step(net, dataset, 0.1) == oracle.train_step(reference, dataset, 0.1)
            assert same_bits(weight_vector(net), oracle.weight_vector(reference))
    grad_w, grad_b, mse = gradients(net, dataset)
    gradients(net, random_dataset(sizes, 100, 3))
    expected_w, expected_b, expected_mse = oracle.gradients(reference, dataset)
    assert mse == expected_mse
    assert all(same_bits(g, e) for g, e in zip(grad_w + grad_b, expected_w + expected_b))
