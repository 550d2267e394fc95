import math
import tracemalloc

import numpy as np
import pytest

from cnets.ann import (
    ACTIVATIONS,
    AnnParams,
    LayeredTopology,
    batch_mse,
    build_ann,
    forward,
    gradients,
    set_weight_vector,
    train_step,
    weight_vector,
)
from cnets.core import ScaleSchedule, run
from cnets.errors import ConfigurationError, NumericDivergenceError
from cnets.problems import Dataset
from cnets.rng import RngStream
from ann_oracle import weighted_sum
from instances import xor_dataset


def make_net(layer_sizes, dataset, seed=1, **kwargs):
    return build_ann(layer_sizes, dataset, RngStream(seed), AnnParams(**kwargs))


def linear_dataset():
    return Dataset(inputs=[(1.5,)], targets=[(1.0,)])


class TestWeightedSum:
    def test_worked_example(self):
        assert weighted_sum((1.0, 2.0), (0.5, 0.25), 0.0) == 1.0

    def test_bias_is_added(self):
        assert weighted_sum((1.0,), (2.0,), -0.5) == 1.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_sum((1.0, 2.0), (0.5,), 0.0)


class TestTopology:
    def test_two_two_one_counts(self):
        topo = LayeredTopology(layer_sizes=(2, 2, 1))
        assert topo.node_count == 5
        assert topo.edge_count == 6
        assert topo.bias_count == 3
        assert topo.parameter_count == 9

    def test_edge_base(self):
        topo = LayeredTopology(layer_sizes=(3, 2, 1))
        assert topo.edge_base(0) == 0
        assert topo.edge_base(1) == 6
        assert topo.edge_count == 8

    @pytest.mark.parametrize("sizes", [(), (3,), (2, 0, 1)])
    def test_bad_layer_sizes_rejected(self, sizes):
        with pytest.raises(ConfigurationError):
            LayeredTopology(layer_sizes=sizes)


class TestForward:
    def test_single_linear_neuron(self):
        ds = Dataset(inputs=[(1.0, 2.0)], targets=[(0.0,)])
        net = make_net((2, 1), ds, output_activation="identity")
        set_weight_vector(net, [2.0, 3.0, 0.5])
        assert forward(net, [1.0, 2.0]) == [8.5]

    def test_hand_computed_two_layer(self):
        ds = Dataset(inputs=[(1.0, 0.5)], targets=[(0.0,)])
        net = make_net((2, 2, 1), ds)
        # layer 0 weights (dst-major), layer 1 weights, hidden biases, output bias
        set_weight_vector(net, [1.0, -1.0, 0.5, 0.5, 1.0, 2.0, 0.0, -1.0, 0.25])
        h0 = math.tanh(1.0 * 1.0 + (-1.0) * 0.5 + 0.0)
        h1 = math.tanh(0.5 * 1.0 + 0.5 * 0.5 - 1.0)
        expected = math.tanh(1.0 * h0 + 2.0 * h1 + 0.25)
        (out,) = forward(net, [1.0, 0.5])
        assert out == pytest.approx(expected, rel=1e-12)

    def test_payloads_record_the_evaluation(self):
        ds = linear_dataset()
        net = make_net((1, 1), ds, output_activation="identity")
        assert net.readout() == [0.0]
        set_weight_vector(net, [3.0, 0.5])
        forward(net, [2.0])
        assert net.outputs[0].tolist() == [2.0]
        assert net.outputs[1].tolist() == [6.5]
        assert net.readout() == [6.5]

    def test_arity_mismatch_rejected(self):
        net = make_net((2, 1), Dataset(inputs=[(0.0, 0.0)], targets=[(0.0,)]))
        with pytest.raises(ConfigurationError):
            forward(net, [1.0])

    def test_divergence_names_the_first_non_finite_node(self):
        ds = Dataset(inputs=[(1.0, 1.0)], targets=[(0.0,)])
        net = make_net((2, 3, 3, 1), ds, hidden_activation="identity")
        # second hidden layer (node ids 5..7): units 1 and 2 overflow
        vector = np.zeros(net.topology.parameter_count)
        vector[0:6] = 1.0
        vector[6:15] = [1.0, 0.0, 0.0, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308]
        set_weight_vector(net, vector)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericDivergenceError, match=r"^node 6 produced non-finite output inf$"):
                forward(net, [1.0, 1.0])

    def test_logistic_activation(self):
        ds = linear_dataset()
        net = make_net((1, 1), ds, output_activation="logistic")
        set_weight_vector(net, [1.0, 0.0])
        (out,) = forward(net, [0.0])
        assert out == pytest.approx(0.5, rel=1e-12)


class TestGradients:
    def test_single_neuron_closed_form(self):
        # out = w*x + b, mse = (w*x + b - t)^2 for one sample and output
        ds = linear_dataset()
        net = make_net((1, 1), ds, output_activation="identity")
        set_weight_vector(net, [2.0, 0.5])
        grad_w, grad_b, mse = gradients(net, ds)
        diff = 2.0 * 1.5 + 0.5 - 1.0
        assert mse == pytest.approx(diff**2)
        assert grad_w[0][0, 0] == pytest.approx(2.0 * diff * 1.5)
        assert grad_b[0][0] == pytest.approx(2.0 * diff)

    def test_matches_central_differences(self):
        ds = Dataset(
            inputs=[(0.2, -0.4, 0.1), (-0.5, 0.9, 0.0), (0.7, 0.7, -0.3)],
            targets=[(0.3,), (-0.2,), (0.1,)],
        )
        net = make_net((3, 2, 1), ds, seed=5, output_activation="logistic")
        grad_w, grad_b, _ = gradients(net, ds)
        analytic = np.concatenate(
            [g.reshape(-1) for g in grad_w] + [g.reshape(-1) for g in grad_b]
        )
        base = weight_vector(net)
        h = 1e-5
        numeric = np.empty_like(base)
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] = base[i] + h
            set_weight_vector(net, bumped)
            up = batch_mse(net, ds)
            bumped[i] = base[i] - h
            set_weight_vector(net, bumped)
            down = batch_mse(net, ds)
            numeric[i] = (up - down) / (2.0 * h)
        set_weight_vector(net, base)
        rel = np.abs(analytic - numeric) / np.maximum.reduce(
            [np.abs(analytic), np.abs(numeric), np.full_like(base, 1e-3)]
        )
        assert rel.max() < 1e-6

    def test_dataset_arity_checked(self):
        net = make_net((2, 1), Dataset(inputs=[(0.0, 0.0)], targets=[(0.0,)]))
        with pytest.raises(ConfigurationError):
            gradients(net, linear_dataset())


class TestTrainStep:
    def test_returns_pre_update_mse(self):
        ds = xor_dataset()
        net = make_net((2, 2, 1), ds, seed=3)
        before = batch_mse(net, ds)
        assert train_step(net, ds, 0.1) == pytest.approx(before, rel=1e-12)

    def test_applies_exactly_one_gradient_step(self):
        ds = xor_dataset()
        net = make_net((2, 2, 1), ds, seed=3)
        reference = make_net((2, 2, 1), ds, seed=3)
        grad_w, grad_b, _ = gradients(reference, ds)
        expected = weight_vector(reference) - 0.25 * np.concatenate(
            [g.reshape(-1) for g in grad_w] + [g.reshape(-1) for g in grad_b]
        )
        train_step(net, ds, 0.25)
        assert weight_vector(net) == pytest.approx(expected, rel=1e-12)

    def test_descends_on_a_smooth_problem(self):
        ds = linear_dataset()
        net = make_net((1, 1), ds, output_activation="identity")
        losses = [batch_mse(net, ds)]
        for _ in range(20):
            train_step(net, ds, 0.05)
            losses.append(batch_mse(net, ds))
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_runaway_rate_raises_divergence(self):
        ds = linear_dataset()
        net = make_net((1, 1), ds, output_activation="identity")
        with pytest.raises(NumericDivergenceError):
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(200):
                    train_step(net, ds, 1e12)

    def test_a_step_allocates_no_sample_by_width_array(self):
        """The batch pass writes into the network's workspace: after a warm-up
        step, a step's peak allocation is below one (samples, 64) array."""
        samples, sizes = 1024, (16, 64, 64, 4)
        data = RngStream(3).uniform(-1.0, 1.0, size=(samples, sizes[0] + sizes[-1]))
        ds = Dataset(inputs=data[:, : sizes[0]], targets=data[:, sizes[0] :])
        net = make_net(sizes, ds, seed=4)
        train_step(net, ds, 0.1)
        tracemalloc.start()
        try:
            train_step(net, ds, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples * 64 * 8


class TestWeightVector:
    def test_round_trip(self):
        ds = xor_dataset()
        net = make_net((2, 3, 1), ds, seed=8)
        vec = weight_vector(net)
        set_weight_vector(net, vec)
        assert np.array_equal(weight_vector(net), vec)

    def test_order_is_edges_then_biases(self):
        net = make_net((2, 2, 1), xor_dataset())
        set_weight_vector(net, np.arange(9.0))
        # weights grouped by destination neuron, then by source, like the edge ids
        assert net.weights[0].tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert net.edges[1].tolist() == [1, 2]
        assert net.weights[1].tolist() == [[4.0, 5.0]]
        assert [b.tolist() for b in net.biases] == [[6.0, 7.0], [8.0]]

    def test_vectors_are_copies(self):
        net = make_net((2, 2, 1), xor_dataset())
        given = np.arange(9.0)
        set_weight_vector(net, given)
        given[:] = -1.0
        weight_vector(net)[:] = -1.0
        assert weight_vector(net).tolist() == list(np.arange(9.0))

    def test_wrong_length_rejected(self):
        net = make_net((1, 1), linear_dataset())
        with pytest.raises(ConfigurationError):
            set_weight_vector(net, [1.0, 2.0, 3.0])


class TestArchitecture:
    def test_build_shapes(self):
        net = make_net((2, 2, 1), xor_dataset())
        assert len(net.nodes) == 5
        assert len(net.edges) == 6
        assert net.directed

    def test_build_rejects_mismatched_dataset(self):
        with pytest.raises(ConfigurationError):
            make_net((3, 1), xor_dataset())

    def test_inputs_cycle_through_the_dataset(self):
        ds = xor_dataset()
        net = make_net((2, 2, 1), ds)
        seen = []
        for _ in range(6):
            net.fast(RngStream(0))
            seen.append(tuple(net.outputs[0].tolist()))
        assert seen == [tuple(ds.inputs[i % 4].tolist()) for i in range(6)]

    def test_run_records_pre_update_mse(self):
        ds = xor_dataset()
        net = make_net((2, 2, 1), ds, seed=3, learning_rate=0.5)
        fresh = make_net((2, 2, 1), ds, seed=3, learning_rate=0.5)
        records = run(net, ScaleSchedule(fast_steps_per_slow=4, slow_steps=3), RngStream(0))
        assert len(records) == 4
        assert records[0].best_value == pytest.approx(batch_mse(fresh, ds))
        replayed = [batch_mse(fresh, ds)]
        for _ in range(3):
            replayed.append(train_step(fresh, ds, 0.5))
        # record i carries the batch error as it stood entering slow step i
        assert [r.best_value for r in records] == pytest.approx(replayed[:4])

    def test_learning_rate_must_be_positive(self):
        dataset = Dataset(inputs=[(0.0, 0.0)], targets=[(0.0,)])
        for rate in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="learning_rate"):
                make_net((2, 1), dataset, learning_rate=rate)
