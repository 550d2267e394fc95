"""Layered feedforward neural networks.

Nodes are neurons and edges are directed synapses carrying one weight
each. The adjustable state lives on the architecture as per-layer
arrays, and the node and edge lists are derived from the topology only
when read. The fast scale computes the network function by layer-wise
composition; the slow scale is plain gradient descent on batch mean
squared error.

Edge ids follow a fixed layout: all synapses into layer 1 first, then
layer 2, and so on; within a layer, grouped by destination neuron, then
by source. The flat weight-vector order used by weight_vector /
set_weight_vector (and by the PSO cross-composition) is all edge weights
in edge-id order followed by the biases of all non-input nodes in
node-id order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ComputingNetwork, EdgeState, NodeState
from .errors import ConfigurationError, NumericDivergenceError
from .problems import Dataset
from .rng import RngStream


def _logistic(x):
    # 0.5*(1+tanh(x/2)) is the overflow-safe form of 1/(1+exp(-x))
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# name -> (function, derivative expressed in terms of the output)
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "logistic": (_logistic, lambda y: y * (1.0 - y)),
    "identity": (lambda x: x, lambda y: np.ones_like(y)),
}


def activate(kind: str, value):
    if kind not in ACTIVATIONS:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ConfigurationError(f"unknown activation {kind!r} (known: {known})")
    return ACTIVATIONS[kind][0](value)


@dataclass(frozen=True)
class LayeredTopology:
    """Layer sizes of a fully connected feedforward network."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ConfigurationError(
                f"need at least input and output layers, got {self.layer_sizes}"
            )
        if any(size < 1 for size in self.layer_sizes):
            raise ConfigurationError(
                f"every layer needs >= 1 neuron, got {self.layer_sizes}"
            )

    @property
    def depth(self) -> int:
        return len(self.layer_sizes)

    def node_base(self, layer: int) -> int:
        return sum(self.layer_sizes[:layer])

    def edge_base(self, layer: int) -> int:
        """First edge id of the synapse block into layer+1."""
        return sum(
            self.layer_sizes[k] * self.layer_sizes[k + 1] for k in range(layer)
        )

    @property
    def node_count(self) -> int:
        return sum(self.layer_sizes)

    @property
    def edge_count(self) -> int:
        return self.edge_base(self.depth - 1)

    @property
    def bias_count(self) -> int:
        return self.node_count - self.layer_sizes[0]

    @property
    def parameter_count(self) -> int:
        return self.edge_count + self.bias_count


def _check_arities(topo: LayeredTopology, dataset: Dataset) -> None:
    if dataset.input_arity != topo.layer_sizes[0]:
        raise ConfigurationError(
            f"dataset input arity {dataset.input_arity} does not match "
            f"input layer size {topo.layer_sizes[0]}"
        )
    if dataset.target_arity != topo.layer_sizes[-1]:
        raise ConfigurationError(
            f"dataset target arity {dataset.target_arity} does not match "
            f"output layer size {topo.layer_sizes[-1]}"
        )


def forward(net: ComputingNetwork, inputs: Sequence[float]) -> list[float]:
    """Evaluate one input vector, keeping every layer's values on the architecture."""
    arch = net.arch
    if len(inputs) != arch.input_arity:
        raise ConfigurationError(
            f"network takes {arch.input_arity} inputs, got {len(inputs)}"
        )
    a = np.array(inputs, dtype=float)
    pre_activations, outputs = [a], [a]
    for k, (w, b) in enumerate(zip(arch.weights, arch.biases)):
        z = w @ a + b
        a = activate(arch.activations[k + 1], z)
        finite = np.isfinite(a)
        if not finite.all():
            j = int(finite.argmin())
            raise NumericDivergenceError(
                f"node {arch.topology.node_base(k + 1) + j} produced "
                f"non-finite output {a[j]!r}"
            )
        pre_activations.append(z)
        outputs.append(a)
    arch.pre_activations, arch.outputs = pre_activations, outputs
    return a.tolist()


def _batch_forward(arch: "AnnArchitecture", x: np.ndarray) -> list[np.ndarray]:
    """All-sample forward pass; returns activations per layer (rows = samples)."""
    activations = [x]
    a = x
    for k, (w, b) in enumerate(zip(arch.weights, arch.biases)):
        a = activate(arch.activations[k + 1], a @ w.T + b)
        activations.append(a)
    return activations


def batch_mse(net: ComputingNetwork, dataset: Dataset) -> float:
    """Mean squared error over every sample and output component."""
    diff = _batch_forward(net.arch, dataset.input_matrix())[-1] - dataset.target_matrix()
    return float(np.mean(diff * diff))


def gradients(
    net: ComputingNetwork, dataset: Dataset
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Analytic batch-MSE gradients for every weight and bias.

    Returns (weight gradients, bias gradients, pre-update mse); shapes
    match the architecture's weights and biases.
    """
    arch = net.arch
    _check_arities(arch.topology, dataset)
    kinds = arch.activations
    activations = _batch_forward(arch, dataset.input_matrix())
    diff = activations[-1] - dataset.target_matrix()
    mse = float(np.mean(diff * diff))
    # d(mse)/d(output); mse averages over samples * components
    delta = (2.0 / diff.size) * diff * ACTIVATIONS[kinds[-1]][1](activations[-1])
    depth = arch.topology.depth
    grad_w: list[np.ndarray] = [np.empty(0)] * (depth - 1)
    grad_b: list[np.ndarray] = [np.empty(0)] * (depth - 1)
    for k in range(depth - 2, -1, -1):
        grad_w[k] = delta.T @ activations[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ arch.weights[k]) * ACTIVATIONS[kinds[k]][1](activations[k])
    return grad_w, grad_b, mse


def train_step(
    net: ComputingNetwork, dataset: Dataset, learning_rate: float
) -> float:
    """One full-batch gradient-descent update; returns the pre-update MSE."""
    grad_w, grad_b, mse = gradients(net, dataset)
    for g in grad_w + grad_b:
        if not np.all(np.isfinite(g)):
            raise NumericDivergenceError("gradient became non-finite")
    arch = net.arch
    arch.weights = [w - learning_rate * g for w, g in zip(arch.weights, grad_w)]
    arch.biases = [b - learning_rate * g for b, g in zip(arch.biases, grad_b)]
    return mse


def weight_vector(net: ComputingNetwork) -> np.ndarray:
    """A copy of all trainable parameters (edge weights, then biases)."""
    arch = net.arch
    return np.concatenate([w.reshape(-1) for w in arch.weights] + arch.biases)


def set_weight_vector(net: ComputingNetwork, vector: Sequence[float]) -> None:
    """Install a copy of a flat parameter vector as the layer arrays."""
    topo = net.arch.topology
    vector = np.array(vector, dtype=float)
    if vector.shape != (topo.parameter_count,):
        raise ConfigurationError(
            f"expected {topo.parameter_count} parameters, got {vector.shape}"
        )
    net.arch.install(vector)


class AnnArchitecture:
    """Feedforward behaviour: fast = evaluate a sample, slow = batch descent.

    weights[k] (shape: size of layer k+1 by size of layer k) and
    biases[k] feed layer k+1, and activations[k] names layer k's
    activation (the identity for inputs). These arrays are the only copy
    of the adjustable state. pre_activations[k] and outputs[k] hold layer
    k's values from the last forward pass, zeros before the first.
    """

    kind = "ann"
    allow_hyperedges = False

    def __init__(
        self,
        topology: LayeredTopology,
        problem: Dataset,
        learning_rate: float,
        activations: Sequence[str],
        vector: np.ndarray,
    ):
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.topology = topology
        self.problem = problem
        self.learning_rate = learning_rate
        self.input_arity = topology.layer_sizes[0]
        self.activations = tuple(activations)
        self.install(vector)
        self.pre_activations = [np.zeros(size) for size in topology.layer_sizes]
        self.outputs = list(self.pre_activations)
        self._cursor = 0
        self._last_mse: float | None = None

    def install(self, vector: np.ndarray) -> None:
        """Take the layer arrays as views of a flat vector (weights, then biases)."""
        sizes = self.topology.layer_sizes
        cursor = 0
        self.weights: list[np.ndarray] = []
        for src, dst in zip(sizes, sizes[1:]):
            self.weights.append(vector[cursor : cursor + src * dst].reshape(dst, src))
            cursor += src * dst
        self.biases: list[np.ndarray] = []
        for size in sizes[1:]:
            self.biases.append(vector[cursor : cursor + size])
            cursor += size

    def substrate(self) -> tuple[list[NodeState], list[EdgeState]]:
        """Neurons in layer order and synapses in edge-id order."""
        topo = self.topology
        nodes = [NodeState(id=i, payload=None) for i in range(topo.node_count)]
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
                            payload=None,
                        )
                    )
        return nodes, edges

    def check_problem(self, problem) -> None:
        if problem != self.problem:
            raise ConfigurationError("network was built for a different dataset")

    def next_input(self, net, slow_index, fast_index) -> list[float]:
        sample = self.problem.inputs[self._cursor % len(self.problem)]
        self._cursor += 1
        return list(sample)

    def fast(self, net, inputs, rng: RngStream) -> None:
        forward(net, inputs)

    def readout(self, net) -> list[float]:
        return self.outputs[-1].tolist()

    def collect(self, net, outputs):
        return outputs

    def slow(self, net, feedback, rng: RngStream) -> None:
        self._last_mse = train_step(net, self.problem, self.learning_rate)

    def best_value(self, net) -> float | None:
        if self._last_mse is None:
            return batch_mse(net, self.problem)
        return self._last_mse

    def parameters(self, net) -> dict[str, float]:
        return {"learning_rate": float(self.learning_rate)}


def build_ann(
    layer_sizes: Sequence[int],
    dataset: Dataset,
    rng: RngStream,
    *,
    learning_rate: float = 0.1,
    hidden_activation: str = "tanh",
    output_activation: str = "tanh",
) -> ComputingNetwork:
    """Fully connected feedforward network with uniform [-0.5, 0.5] init.

    Draw order is fixed: every synapse weight in edge-id order, then
    every non-input bias in node-id order.
    """
    topo = LayeredTopology(layer_sizes=tuple(int(s) for s in layer_sizes))
    for kind in (hidden_activation, output_activation):
        if kind not in ACTIVATIONS:
            known = ", ".join(sorted(ACTIVATIONS))
            raise ConfigurationError(f"unknown activation {kind!r} (known: {known})")
    _check_arities(topo, dataset)
    weights = rng.uniform(-0.5, 0.5, size=topo.edge_count)
    biases = rng.uniform(-0.5, 0.5, size=topo.bias_count)
    activations = ["identity"] + [hidden_activation] * (topo.depth - 2) + [output_activation]
    arch = AnnArchitecture(
        topo, dataset, learning_rate, activations, np.concatenate([weights, biases])
    )
    return ComputingNetwork(arch=arch)
