"""Generic computing-network substrate.

A computing network is an architecture object, which keeps its state in
arrays and supplies two plug-in behaviours, over the graph that
architecture describes: fast dynamics that evaluate the network
function, and a slow adaptation algorithm that rewrites the adjustable
state between evaluations. Each architecture keeps whatever its fast
steps leave for its slow step, so the loop hands it only the network
and the stream. ``run`` drives both under an explicit ScaleSchedule and
emits one RunRecord per slow step (plus an initial pre-adaptation
snapshot), which is the only artifact the harness persists.

The graph is arrays too. A node is its index in ``range(node_count)``,
and the edges are one read-only integer array of shape (edges, width):
row k lists edge k's endpoints, in (source, destination) order when the
architecture is ``directed``. A hyperedge row with fewer members than the
width repeats its last member, so row k's member set is
``set(edges[k])``. Network topology is immutable for the lifetime of a
run: nothing in this module (or in the architectures) adds or removes
nodes or edges after construction.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .errors import CnError, ConfigurationError, NumericDivergenceError
from .rng import RngStream


@dataclass(frozen=True)
class ScaleSchedule:
    """Step budget linking the fast and slow scales.

    fast_steps_per_slow evaluations happen between consecutive slow
    steps.
    """

    fast_steps_per_slow: int = 1
    slow_steps: int = 0

    def __post_init__(self):
        if self.fast_steps_per_slow < 1:
            raise ConfigurationError(
                f"must be >= 1, got {self.fast_steps_per_slow}", key="fast_steps_per_slow"
            )
        if self.slow_steps < 0:
            raise ConfigurationError(f"must be >= 0, got {self.slow_steps}", key="slow_steps")


@dataclass
class RunRecord:
    """One row of a run trace.

    slow_step counts completed slow steps (0 is the pre-adaptation
    snapshot). best_value is the architecture's objective reading, None
    when no solution exists yet or the architecture has no objective.
    """

    slow_step: int
    best_value: float | None
    network_output: list[float]
    parameter_snapshot: dict[str, float]
    wall_clock_ms: float


@runtime_checkable
class Architecture(Protocol):
    """Behaviour bundle a ComputingNetwork delegates to.

    ``fast`` implements the network function's dynamics (may mutate the
    architecture's state), ``readout`` is a pure function of current
    state, and ``slow`` is the adaptation algorithm. Each architecture
    keeps whatever its fast steps leave for its slow step: an ann its
    next sample's place in the dataset, a colony the tours it walked.
    ``substrate()``, read only when the network's graph is, returns the
    node count and the (edges, width) endpoint array. Edges with more
    than two members are legal only when ``allow_hyperedges`` is set, and
    ``directed`` says whether each row reads (source, destination).
    ``problem`` is the instance the network was built for; a run is
    driven only on it.
    """

    kind: str
    allow_hyperedges: bool
    directed: bool
    problem: Any

    def fast(self, net: "ComputingNetwork", rng: RngStream) -> None: ...

    def readout(self, net: "ComputingNetwork") -> list[float]: ...

    def slow(self, net: "ComputingNetwork", rng: RngStream) -> None: ...

    def best_value(self, net: "ComputingNetwork") -> float | None: ...

    def parameters(self, net: "ComputingNetwork") -> dict[str, float]: ...


def _validated(arch: Architecture, node_count: int, edges: np.ndarray) -> tuple[range, np.ndarray]:
    """The node indices and a read-only view of the endpoint array, checked
    against each other and the architecture; errors name the first bad edge."""
    edges = np.asarray(edges).view()
    edges.flags.writeable = False
    # one contiguous row per endpoint position, since numpy reduces across such
    # rows far faster than along each short edge row; sorted if wider than a pair
    ends = np.ascontiguousarray(np.sort(edges, axis=1).T if edges.shape[1] > 2 else edges.T)
    members = len(ends) - (ends[1:] == ends[:-1]).sum(axis=0)
    widest = len(ends) if arch.allow_hyperedges else 2
    bad = (members < 2) | (members > widest) | ((ends < 0) | (ends >= node_count)).any(axis=0)
    if bad.any():
        k = int(bad.argmax())
        if members[k] < 2:
            raise ConfigurationError(f"edge {k} has {members[k]} endpoints; need >= 2")
        if members[k] > 2 and not arch.allow_hyperedges:
            raise ConfigurationError(
                f"edge {k} is a hyperedge but architecture {arch.kind!r} does not allow them"
            )
        missing = [v for v in dict.fromkeys(edges[k].tolist()) if not 0 <= v < node_count]
        raise ConfigurationError(f"edge {k} references unknown node ids {missing}")
    return range(node_count), edges


class ComputingNetwork:
    """An architecture plus the computing-network graph its state lives on.

    The architecture keeps its state in arrays and describes its topology
    with ``substrate()``, which returns the node count and the endpoint
    array. ``nodes`` is ``range(node_count)``; ``edges`` is the endpoint
    array, read-only, its rows in edge-id order and (source, destination)
    order when ``arch.directed``. Both are built and validated on first
    read of either.
    """

    def __init__(self, arch: Architecture):
        self.arch = arch

    @property
    def nodes(self) -> range:
        return self._graph[0]

    @property
    def edges(self) -> np.ndarray:
        return self._graph[1]

    @cached_property
    def _graph(self) -> tuple[range, np.ndarray]:
        return _validated(self.arch, *self.arch.substrate())


def fast_step(net: ComputingNetwork, rng: RngStream) -> list[float]:
    """Run one fast-scale evaluation and return the readout."""
    net.arch.fast(net, rng)
    out = net.arch.readout(net)
    if not all(map(math.isfinite, out)):
        value = next(v for v in out if not math.isfinite(v))
        raise NumericDivergenceError(f"{net.arch.kind} readout produced non-finite value {value!r}")
    return out


def slow_step(net: ComputingNetwork, rng: RngStream) -> ComputingNetwork:
    """Apply the adaptation algorithm once and return the same network."""
    net.arch.slow(net, rng)
    return net


def _record(net: ComputingNetwork, slow_index: int, elapsed_ms: float) -> RunRecord:
    return RunRecord(
        slow_step=slow_index,
        best_value=net.arch.best_value(net),
        network_output=net.arch.readout(net),
        parameter_snapshot=net.arch.parameters(net),
        wall_clock_ms=elapsed_ms,
    )


def run(
    net: ComputingNetwork, schedule: ScaleSchedule, problem: Any, rng: RngStream
) -> list[RunRecord]:
    """Drive the network through the whole schedule.

    Returns the initial snapshot record followed by one record per slow
    step. A CnError raised inside carries (slow step, fast index) as its
    step_position; the fast index is None outside the fast phase.
    """
    arch = net.arch
    if not (problem is arch.problem or problem == arch.problem):
        raise ConfigurationError(f"{arch.kind} network was built for a different problem")
    slow_index, fast_index = 0, None
    try:
        started = time.perf_counter()
        records = [_record(net, 0, (time.perf_counter() - started) * 1000.0)]
        for slow_index in range(1, schedule.slow_steps + 1):
            step_started = time.perf_counter()
            for fast_index in range(schedule.fast_steps_per_slow):
                fast_step(net, rng)
            fast_index = None
            slow_step(net, rng)
            records.append(_record(net, slow_index, (time.perf_counter() - step_started) * 1000.0))
    except CnError as exc:
        if exc.step_position is None:
            exc.step_position = (slow_index, fast_index)
        raise
    return records
