"""Payload-per-neuron reference form of cnets.ann, kept as a test oracle.

One Python object per neuron (activation, bias and the values of the
last evaluation) and one per synapse (its weight). Every call rebuilds
the layer matrices from those objects and writes updates back, and the
build draws one weight or bias at a time. The array-resident network
must give the same weights, outputs, errors and random draws, bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cnets.ann import ACTIVATIONS, LayeredTopology, activate
from cnets.core import EdgeState, NodeState
from cnets.errors import ConfigurationError, NumericDivergenceError
from cnets.problems import Dataset
from cnets.rng import RngStream


def weighted_sum(
    inputs: Sequence[float], weights: Sequence[float], bias: float
) -> float:
    """Bias plus the dot product of paired inputs and weights."""
    if len(inputs) != len(weights):
        raise ConfigurationError(
            f"got {len(inputs)} inputs for {len(weights)} weights"
        )
    return float(bias + sum(w * x for w, x in zip(weights, inputs)))


@dataclass
class NeuronPayload:
    """Adjustable and transient state of one neuron.

    pre_activation and output hold the values from the most recent
    evaluation; input-layer neurons use the identity activation and a
    frozen zero bias.
    """

    activation: str
    bias: float
    pre_activation: float = 0.0
    output: float = 0.0


@dataclass
class SynapsePayload:
    """One directed connection weight."""

    weight: float


@dataclass
class OracleNet:
    topology: LayeredTopology
    nodes: list[NodeState]
    edges: list[EdgeState]


def _weights(net: OracleNet) -> list[np.ndarray]:
    """Per-layer weight matrices, shape (destination size, source size)."""
    topo = net.topology
    out = []
    for k in range(topo.depth - 1):
        src, dst = topo.layer_sizes[k], topo.layer_sizes[k + 1]
        base = topo.edge_base(k)
        block = [net.edges[base + j].payload.weight for j in range(src * dst)]
        out.append(np.array(block, dtype=float).reshape(dst, src))
    return out


def _biases(net: OracleNet) -> list[np.ndarray]:
    topo = net.topology
    out = []
    for k in range(1, topo.depth):
        base = topo.node_base(k)
        out.append(
            np.array(
                [net.nodes[base + j].payload.bias for j in range(topo.layer_sizes[k])],
                dtype=float,
            )
        )
    return out


def _store_weights(
    net: OracleNet, weights: list[np.ndarray], biases: list[np.ndarray]
) -> None:
    topo = net.topology
    for k in range(topo.depth - 1):
        base = topo.edge_base(k)
        for j, value in enumerate(weights[k].reshape(-1)):
            net.edges[base + j].payload.weight = float(value)
    for k in range(1, topo.depth):
        base = topo.node_base(k)
        for j in range(topo.layer_sizes[k]):
            net.nodes[base + j].payload.bias = float(biases[k - 1][j])


def _layer_activations(net: OracleNet) -> list[str]:
    topo = net.topology
    return [net.nodes[topo.node_base(k)].payload.activation for k in range(topo.depth)]


def forward(net: OracleNet, inputs: Sequence[float]) -> list[float]:
    """Evaluate one input vector, storing every neuron's state as it goes."""
    topo = net.topology
    weights, biases, kinds = _weights(net), _biases(net), _layer_activations(net)
    a = np.array(inputs, dtype=float)
    for j, value in enumerate(a):
        net.nodes[j].payload.pre_activation = float(value)
        net.nodes[j].payload.output = float(value)
    for k in range(topo.depth - 1):
        z = weights[k] @ a + biases[k]
        a = activate(kinds[k + 1], z)
        base = topo.node_base(k + 1)
        for j in range(topo.layer_sizes[k + 1]):
            node = net.nodes[base + j]
            if not math.isfinite(a[j]):
                raise NumericDivergenceError(
                    f"node {node.id} produced non-finite output {a[j]!r}"
                )
            node.payload.pre_activation = float(z[j])
            node.payload.output = float(a[j])
    return [float(v) for v in a]


def _batch_forward(net: OracleNet, x: np.ndarray) -> list[np.ndarray]:
    weights, biases, kinds = _weights(net), _biases(net), _layer_activations(net)
    activations = [x]
    a = x
    for k, (w, b) in enumerate(zip(weights, biases)):
        a = activate(kinds[k + 1], a @ w.T + b)
        activations.append(a)
    return activations


def batch_mse(net: OracleNet, dataset: Dataset) -> float:
    diff = _batch_forward(net, dataset.input_matrix())[-1] - dataset.target_matrix()
    return float(np.mean(diff * diff))


def gradients(
    net: OracleNet, dataset: Dataset
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    topo = net.topology
    weights, kinds = _weights(net), _layer_activations(net)
    activations = _batch_forward(net, dataset.input_matrix())
    diff = activations[-1] - dataset.target_matrix()
    mse = float(np.mean(diff * diff))
    delta = (2.0 / diff.size) * diff * ACTIVATIONS[kinds[-1]][1](activations[-1])
    grad_w: list[np.ndarray] = [np.empty(0)] * (topo.depth - 1)
    grad_b: list[np.ndarray] = [np.empty(0)] * (topo.depth - 1)
    for k in range(topo.depth - 2, -1, -1):
        grad_w[k] = delta.T @ activations[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k]) * ACTIVATIONS[kinds[k]][1](activations[k])
    return grad_w, grad_b, mse


def train_step(net: OracleNet, dataset: Dataset, learning_rate: float) -> float:
    grad_w, grad_b, mse = gradients(net, dataset)
    for g in grad_w + grad_b:
        if not np.all(np.isfinite(g)):
            raise NumericDivergenceError("gradient became non-finite")
    new_w = [w - learning_rate * g for w, g in zip(_weights(net), grad_w)]
    new_b = [b - learning_rate * g for b, g in zip(_biases(net), grad_b)]
    _store_weights(net, new_w, new_b)
    return mse


def weight_vector(net: OracleNet) -> np.ndarray:
    return np.concatenate([w.reshape(-1) for w in _weights(net)] + _biases(net))


def build_ann(
    layer_sizes: Sequence[int],
    rng: RngStream,
    *,
    hidden_activation: str = "tanh",
    output_activation: str = "tanh",
) -> OracleNet:
    """One payload per neuron and synapse; one scalar draw per weight, then per bias."""
    topo = LayeredTopology(layer_sizes=tuple(int(s) for s in layer_sizes))
    nodes = []
    for layer, size in enumerate(topo.layer_sizes):
        if layer == 0:
            kind = "identity"
        elif layer == topo.depth - 1:
            kind = output_activation
        else:
            kind = hidden_activation
        for _ in range(size):
            nodes.append(
                NodeState(id=len(nodes), payload=NeuronPayload(activation=kind, bias=0.0))
            )
    edges = []
    for k in range(topo.depth - 1):
        src_base, dst_base = topo.node_base(k), topo.node_base(k + 1)
        for j in range(topo.layer_sizes[k + 1]):
            for i in range(topo.layer_sizes[k]):
                edges.append(
                    EdgeState(
                        id=len(edges),
                        endpoints=(src_base + i, dst_base + j),
                        directed=True,
                        payload=SynapsePayload(weight=0.0),
                    )
                )
    for edge in edges:
        edge.payload.weight = float(rng.uniform(-0.5, 0.5))
    for node in nodes[topo.layer_sizes[0] :]:
        node.payload.bias = float(rng.uniform(-0.5, 0.5))
    return OracleNet(topology=topo, nodes=nodes, edges=edges)
