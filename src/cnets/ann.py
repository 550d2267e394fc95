"""Layered feedforward neural networks.

Nodes are neurons and edges are directed synapses carrying one weight
each. The adjustable state lives on the network as per-layer
arrays, and the node count and endpoint array are derived from the
topology only when read. The fast scale computes the network function
by layer-wise composition; the slow scale is plain gradient descent on
batch mean squared error.

Edge ids follow a fixed layout: all synapses into layer 1 first, then
layer 2, and so on; within a layer, grouped by destination neuron, then
by source. The flat weight-vector order used by weight_vector,
set_weight_vector and population_mse (through which the PSO
cross-composition evaluates a swarm) is all edge weights in edge-id
order followed by the biases of all non-input nodes in node-id order;
LayeredTopology.layer_views is its one definition.

The batch pass of gradients writes each non-input layer's activations,
deltas and derivatives into a workspace the network holds
(AnnArchitecture.workspace), with out= and in the order of the plain
formulas, so its bits are those of an allocating pass and a training
step allocates only small arrays: the gradients, the squared output
errors and the new weights. What gradients and train_step return never
aliases the workspace, so no later call overwrites it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ComputingNetwork
from .errors import ConfigurationError, NumericDivergenceError
from .problems import Dataset
from .rng import RngStream


def _logistic(x, out=None):
    # 0.5*(1+tanh(x/2)) is the overflow-safe form of 1/(1+exp(-x))
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    np.add(y, 1.0, out=y)
    return np.multiply(y, 0.5, out=y)


def _ones(y, out):
    out.fill(1.0)
    return out


# name -> (function, derivative from the output y). Like a ufunc, the function
# writes into out when given one (out may be x itself); the derivative always
# writes into out. Each keeps the operation order of its plain formula, so in
# place or not the bits are the same.
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda y, out: np.subtract(1.0, np.multiply(y, y, out=out), out=out)),
    "logistic": (_logistic, lambda y, out: np.multiply(y, np.subtract(1.0, y, out=out), out=out)),
    "identity": (lambda x, out=None: x, _ones),
}


@dataclass(frozen=True)
class AnnParams:
    """Gradient-descent step size and the activation of the hidden layers
    and of the output layer."""

    learning_rate: float = 0.1
    hidden_activation: str = "tanh"
    output_activation: str = "tanh"

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"must be positive and finite, got {self.learning_rate}", key="learning_rate"
            )
        for key in ("hidden_activation", "output_activation"):
            kind = getattr(self, key)
            if kind not in ACTIVATIONS:
                known = ", ".join(sorted(ACTIVATIONS))
                raise ConfigurationError(f"unknown activation {kind!r} (known: {known})", key=key)


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

    def layer_views(self, vectors: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weights and biases as views of flat parameter vectors.

        The last axis is the flat layout; an (m, parameters) array gives m stacked networks.
        """
        lead = vectors.shape[:-1]
        cursor = 0
        weights = []
        for src, dst in zip(self.layer_sizes, self.layer_sizes[1:]):
            weights.append(vectors[..., cursor : cursor + src * dst].reshape(*lead, dst, src))
            cursor += src * dst
        biases = []
        for size in self.layer_sizes[1:]:
            biases.append(vectors[..., cursor : cursor + size])
            cursor += size
        return weights, biases


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


def forward(net: AnnArchitecture, inputs: Sequence[float]) -> list[float]:
    """Evaluate one input vector, keeping every layer's values on the network
    (a float64 array input, such as a row of the dataset, is kept uncopied)."""
    arity = net.topology.layer_sizes[0]
    if len(inputs) != arity:
        raise ConfigurationError(f"network takes {arity} inputs, got {len(inputs)}")
    a = np.asarray(inputs, dtype=float)
    outputs = [a]
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = ACTIVATIONS[net.activations[k + 1]][0](w @ a + b)
        finite = np.isfinite(a)
        if not finite.all():
            j = int(finite.argmin())
            raise NumericDivergenceError(
                f"node {net.topology.node_base(k + 1) + j} produced "
                f"non-finite output {float(a[j])}"
            )
        outputs.append(a)
    net.outputs = outputs
    return a.tolist()


def _batch_forward(
    net: AnnArchitecture, weights, biases, x: np.ndarray, layers: list[np.ndarray]
) -> list[np.ndarray]:
    """All-sample forward pass written into layers, one array per non-input
    layer (rows = samples); returns x followed by layers.

    weights and biases are the network's own, or stacked layer_views.
    """
    a = x
    for k, (w, b, out) in enumerate(zip(weights, biases, layers)):
        np.matmul(a, w.swapaxes(-1, -2), out=out)
        out += b[..., None, :]
        a = ACTIVATIONS[net.activations[k + 1]][0](out, out=out)
    return [x, *layers]


def batch_mse(net: AnnArchitecture, dataset: Dataset) -> float:
    """Mean squared error over every sample and output component."""
    return float(population_mse(net, dataset, weight_vector(net)[None])[0])


def population_mse(net: AnnArchitecture, dataset: Dataset, vectors: np.ndarray) -> np.ndarray:
    """batch_mse for each row of vectors (flat parameter vectors) in one stacked pass.

    Row i has the bits of set_weight_vector(net, vectors[i]) then batch_mse;
    the network's own weights are untouched.
    """
    vectors = np.ascontiguousarray(vectors, dtype=float)
    count = net.topology.parameter_count
    if vectors.ndim != 2 or vectors.shape[1] != count:
        raise ConfigurationError(f"expected rows of {count} parameters, got {vectors.shape}")
    weights, biases = net.topology.layer_views(vectors)
    x = dataset.inputs
    layers = [np.empty((len(vectors), len(x), size)) for size in net.topology.layer_sizes[1:]]
    output = _batch_forward(net, weights, biases, x, layers)[-1]
    diff = output - dataset.targets
    return (diff * diff).reshape(len(vectors), -1).mean(axis=1)


def gradients(
    net: AnnArchitecture, dataset: Dataset
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Analytic batch-MSE gradients for every weight and bias.

    Returns (weight gradients, bias gradients, pre-update mse); shapes
    match the network's weights and biases. The batch pass runs in the
    network's workspace, and the returned arrays are new ones.
    """
    _check_arities(net.topology, dataset)
    kinds = net.activations
    outputs, deltas, slopes = net.workspace(len(dataset))
    activations = _batch_forward(net, net.weights, net.biases, dataset.inputs, outputs)
    diff = np.subtract(activations[-1], dataset.targets, out=deltas[-1])
    mse = float(np.mean(diff * diff))
    # d(mse)/d(output); mse averages over samples * components
    delta = np.multiply(2.0 / diff.size, diff, out=diff)
    delta *= ACTIVATIONS[kinds[-1]][1](activations[-1], slopes[-1])
    depth = net.topology.depth
    grad_w: list[np.ndarray] = [np.empty(0)] * (depth - 1)
    grad_b: list[np.ndarray] = [np.empty(0)] * (depth - 1)
    for k in range(depth - 2, -1, -1):
        grad_w[k] = delta.T @ activations[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = np.matmul(delta, net.weights[k], out=deltas[k - 1])
            delta *= ACTIVATIONS[kinds[k]][1](activations[k], slopes[k - 1])
    return grad_w, grad_b, mse


def train_step(net: AnnArchitecture, dataset: Dataset, learning_rate: float) -> float:
    """One full-batch gradient-descent update; returns the pre-update MSE."""
    grad_w, grad_b, mse = gradients(net, dataset)
    for g in grad_w + grad_b:
        if not np.all(np.isfinite(g)):
            raise NumericDivergenceError("gradient became non-finite")
    net.weights = [w - learning_rate * g for w, g in zip(net.weights, grad_w)]
    net.biases = [b - learning_rate * g for b, g in zip(net.biases, grad_b)]
    return mse


def weight_vector(net: AnnArchitecture) -> np.ndarray:
    """A copy of all trainable parameters (edge weights, then biases)."""
    return np.concatenate([w.reshape(-1) for w in net.weights] + net.biases)


def set_weight_vector(net: AnnArchitecture, vector: Sequence[float]) -> None:
    """Install a copy of a flat parameter vector as the layer arrays."""
    topo = net.topology
    vector = np.array(vector, dtype=float)
    if vector.shape != (topo.parameter_count,):
        raise ConfigurationError(
            f"expected {topo.parameter_count} parameters, got {vector.shape}"
        )
    net.weights, net.biases = topo.layer_views(vector)


class AnnArchitecture(ComputingNetwork):
    """Feedforward behaviour: fast = evaluate the next sample, slow = batch descent.

    weights[k] (shape: size of layer k+1 by size of layer k) and
    biases[k] feed layer k+1, and activations[k] names layer k's
    activation (the identity for inputs). These arrays are the only copy
    of the adjustable state. outputs[k] holds layer k's values from the
    last forward pass, zeros before the first.
    workspace gives the buffers the batch pass of gradients writes into.
    """

    kind = "ann"
    allow_hyperedges = False
    directed = True

    def __init__(
        self, topology: LayeredTopology, problem: Dataset, params: AnnParams, vector: np.ndarray
    ):
        self.topology = topology
        self.problem = problem
        self.params = params
        hidden = (params.hidden_activation,) * (topology.depth - 2)
        self.activations = ("identity", *hidden, params.output_activation)
        self.weights, self.biases = topology.layer_views(vector)
        self.outputs = [np.zeros(size) for size in topology.layer_sizes]
        self._cursor = 0
        self._last_mse: float | None = None
        self._workspace: tuple[list[np.ndarray], ...] | None = None

    def workspace(self, samples: int) -> tuple[list[np.ndarray], ...]:
        """Activation, delta and derivative buffers, one (samples, size) array
        per non-input layer each; built on first use and again whenever the
        sample count changes."""
        if self._workspace is None or len(self._workspace[0][0]) != samples:
            sizes = self.topology.layer_sizes[1:]
            self._workspace = tuple([np.empty((samples, size)) for size in sizes] for _ in range(3))
        return self._workspace

    def substrate(self) -> tuple[int, np.ndarray]:
        """Neurons in layer order and (source, destination) synapses in edge-id
        order: the synapses into each layer in turn, by destination, then by source."""
        topo, sizes = self.topology, self.topology.layer_sizes
        ends = np.empty((topo.edge_count, 2), dtype=int)
        for k in range(topo.depth - 1):
            block = ends[topo.edge_base(k) : topo.edge_base(k + 1)]
            block = block.reshape(sizes[k + 1], sizes[k], 2)
            block[..., 0] = topo.node_base(k) + np.arange(sizes[k])
            block[..., 1] = topo.node_base(k + 1) + np.arange(sizes[k + 1])[:, None]
        return topo.node_count, ends

    def fast(self, rng: RngStream) -> None:
        forward(self, self.problem.inputs[self._cursor % len(self.problem)])
        self._cursor += 1

    def readout(self) -> list[float]:
        return self.outputs[-1].tolist()

    def slow(self, rng: RngStream) -> None:
        self._last_mse = train_step(self, self.problem, self.params.learning_rate)

    def best_value(self) -> float | None:
        if self._last_mse is None:
            return batch_mse(self, self.problem)
        return self._last_mse

    def parameters(self) -> dict[str, float]:
        return {"learning_rate": float(self.params.learning_rate)}


def build_ann(
    layer_sizes: Sequence[int],
    dataset: Dataset,
    rng: RngStream,
    params: AnnParams | None = None,
) -> AnnArchitecture:
    """Fully connected feedforward network with uniform [-0.5, 0.5] init.

    Draw order is fixed: every synapse weight in edge-id order, then
    every non-input bias in node-id order.
    """
    topo = LayeredTopology(layer_sizes=tuple(int(s) for s in layer_sizes))
    _check_arities(topo, dataset)
    weights = rng.uniform(-0.5, 0.5, size=topo.edge_count)
    biases = rng.uniform(-0.5, 0.5, size=topo.bias_count)
    vector = np.concatenate([weights, biases])
    return AnnArchitecture(topo, dataset, params or AnnParams(), vector)
