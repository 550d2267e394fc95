"""Generic computing-network substrate.

A computing network bundles node and edge state with two plug-in
behaviours supplied by an architecture object: fast dynamics that
evaluate the network function, and a slow adaptation algorithm that
rewrites the adjustable state between evaluations. ``run`` drives both
under an explicit ScaleSchedule and emits one RunRecord per slow step
(plus an initial pre-adaptation snapshot), which is the only artifact
the harness persists.

Network topology is immutable for the lifetime of a run: nothing in
this module (or in the architectures) adds or removes nodes or edges
after construction.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from .errors import CnError, ConfigurationError, NumericDivergenceError
from .rng import RngStream


class UpdateMode(Enum):
    """How node updates within one fast step are ordered."""

    SYNCHRONOUS = "synchronous"
    ASYNC_FIXED = "asynchronous-fixed"
    ASYNC_RANDOM = "asynchronous-random"


@dataclass
class NodeState:
    """One node: an integer id plus an architecture-defined payload."""

    id: int
    payload: Any


@dataclass
class EdgeState:
    """One (hyper)edge: ordered endpoint ids plus an architecture-defined payload.

    Plain edges have exactly two endpoints. Longer endpoint lists are
    only legal when the owning architecture declares hyperedge support.
    """

    id: int
    endpoints: tuple[int, ...]
    directed: bool
    payload: Any


@dataclass(frozen=True)
class ScaleSchedule:
    """Step budget linking the fast, slow, and meta scales.

    fast_steps_per_slow evaluations happen between consecutive slow
    steps. meta_generations = 0 means a plain two-scale run.
    """

    fast_steps_per_slow: int = 1
    slow_steps: int = 0
    meta_generations: int = 0

    def __post_init__(self):
        if self.fast_steps_per_slow < 1:
            raise ConfigurationError(
                f"fast_steps_per_slow must be >= 1, got {self.fast_steps_per_slow}"
            )
        if self.slow_steps < 0:
            raise ConfigurationError(f"slow_steps must be >= 0, got {self.slow_steps}")
        if self.meta_generations < 0:
            raise ConfigurationError(
                f"meta_generations must be >= 0, got {self.meta_generations}"
            )


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

    ``fast`` implements the network function's dynamics (may mutate
    payloads), ``readout`` is a pure function of current state, and
    ``slow`` is the adaptation algorithm. ``next_input`` supplies the
    input vector for each fast step of a driven run, and ``collect``
    folds the fast-phase outputs into the feedback handed to ``slow``.
    """

    kind: str
    input_arity: int
    allow_hyperedges: bool
    problem: Any

    def check_problem(self, problem: Any) -> None: ...

    def next_input(self, net: "ComputingNetwork", slow_index: int, fast_index: int) -> list[float]: ...

    def fast(self, net: "ComputingNetwork", inputs: Sequence[float], rng: RngStream) -> None: ...

    def readout(self, net: "ComputingNetwork") -> list[float]: ...

    def collect(self, net: "ComputingNetwork", outputs: list[list[float]]) -> Any: ...

    def slow(self, net: "ComputingNetwork", feedback: Any, rng: RngStream) -> None: ...

    def best_value(self, net: "ComputingNetwork") -> float | None: ...

    def parameters(self, net: "ComputingNetwork") -> dict[str, float]: ...


def _validated(
    arch: Architecture, nodes: list[NodeState], edges: list[EdgeState]
) -> tuple[list[NodeState], list[EdgeState]]:
    """The node and edge lists, checked against each other and the architecture."""
    ids = [node.id for node in nodes]
    if ids != list(range(len(ids))):
        raise ConfigurationError("node ids must be 0..n-1 in order")
    known = set(ids)
    for edge in edges:
        if len(edge.endpoints) < 2:
            raise ConfigurationError(
                f"edge {edge.id} has {len(edge.endpoints)} endpoints; need >= 2"
            )
        if len(edge.endpoints) > 2 and not arch.allow_hyperedges:
            raise ConfigurationError(
                f"edge {edge.id} is a hyperedge but architecture "
                f"{arch.kind!r} does not allow them"
            )
        missing = [v for v in edge.endpoints if v not in known]
        if missing:
            raise ConfigurationError(
                f"edge {edge.id} references unknown node ids {missing}"
            )
    return nodes, edges


class ComputingNetwork:
    """Node and edge state plus the architecture that animates it.

    Explicit node and edge lists are validated at once. An architecture
    that keeps its adjustable state in arrays passes neither and defines
    ``substrate()``, returning the lists derived from its topology; they
    are then built and validated on first read of ``nodes`` or ``edges``.
    """

    def __init__(
        self,
        arch: Architecture,
        nodes: list[NodeState] | None = None,
        edges: list[EdgeState] | None = None,
        updating: UpdateMode = UpdateMode.SYNCHRONOUS,
    ):
        self.arch = arch
        self.updating = updating
        self._graph: tuple[list[NodeState], list[EdgeState]] | None = None
        if nodes is not None or edges is not None:
            self._graph = _validated(arch, nodes or [], edges or [])

    @property
    def nodes(self) -> list[NodeState]:
        return self._substrate()[0]

    @property
    def edges(self) -> list[EdgeState]:
        return self._substrate()[1]

    def _substrate(self) -> tuple[list[NodeState], list[EdgeState]]:
        if self._graph is None:
            self._graph = _validated(self.arch, *self.arch.substrate())
        return self._graph

    @property
    def adaptation(self) -> Callable:
        """The slow-scale adaptation algorithm, bound to this network."""
        return partial(self.arch.slow, self)

    @property
    def readout(self) -> Callable[[], list[float]]:
        """The network function as a pure readout of current state."""
        return partial(self.arch.readout, self)

    def node(self, node_id: int) -> NodeState:
        return self.nodes[node_id]


def node_update_order(n: int, mode: UpdateMode, rng: RngStream | None) -> list[int]:
    """Node visit order for one fast step under the given update mode.

    Synchronous callers should read all pre-step state first and ignore
    ordering; the order returned here matters only to the asynchronous
    modes, where updates land in place.
    """
    if mode is UpdateMode.ASYNC_RANDOM:
        if rng is None:
            raise ConfigurationError("asynchronous-random updating needs an RngStream")
        return [int(i) for i in rng.permutation(n)]
    return list(range(n))


def fast_step(net: ComputingNetwork, inputs: Sequence[float], rng: RngStream) -> list[float]:
    """Run one fast-scale evaluation and return the readout."""
    arity = net.arch.input_arity
    if len(inputs) != arity:
        raise ConfigurationError(
            f"{net.arch.kind} network takes {arity} inputs, got {len(inputs)}"
        )
    net.arch.fast(net, inputs, rng)
    out = net.arch.readout(net)
    for value in out:
        if not math.isfinite(value):
            raise NumericDivergenceError(
                f"{net.arch.kind} readout produced non-finite value {value!r}"
            )
    return out


def slow_step(net: ComputingNetwork, feedback: Any, rng: RngStream) -> ComputingNetwork:
    """Apply the adaptation algorithm once and return the same network."""
    net.arch.slow(net, feedback, rng)
    return net


def _record(net: ComputingNetwork, slow_index: int, elapsed_ms: float) -> RunRecord:
    return RunRecord(
        slow_step=slow_index,
        best_value=net.arch.best_value(net),
        network_output=net.arch.readout(net),
        parameter_snapshot=net.arch.parameters(net),
        wall_clock_ms=elapsed_ms,
    )


def _annotate(exc: CnError, slow_index: int, fast_index: int | None) -> None:
    if exc.step_position is None:
        exc.step_position = (slow_index, fast_index)


def run(
    net: ComputingNetwork,
    schedule: ScaleSchedule,
    problem: Any,
    rng: RngStream,
    meta_search: Any = None,
) -> list[RunRecord]:
    """Drive the network through the whole schedule.

    Returns the initial snapshot record followed by one record per slow
    step. When the schedule has meta generations the call is delegated
    to the meta module and the records describe generations instead.
    """
    if schedule.meta_generations > 0:
        from .meta import three_scale_run

        if meta_search is None:
            raise ConfigurationError(
                "schedule has meta generations but no meta search was given"
            )
        return three_scale_run(schedule, meta_search, rng)

    net.arch.check_problem(problem)
    started = time.perf_counter()
    records = [_record(net, 0, (time.perf_counter() - started) * 1000.0)]
    for slow_index in range(1, schedule.slow_steps + 1):
        step_started = time.perf_counter()
        outputs: list[list[float]] = []
        for fast_index in range(schedule.fast_steps_per_slow):
            inputs = net.arch.next_input(net, slow_index - 1, fast_index)
            try:
                outputs.append(fast_step(net, inputs, rng))
            except CnError as exc:
                _annotate(exc, slow_index, fast_index)
                raise
        feedback = net.arch.collect(net, outputs)
        try:
            slow_step(net, feedback, rng)
        except CnError as exc:
            _annotate(exc, slow_index, None)
            raise
        elapsed_ms = (time.perf_counter() - step_started) * 1000.0
        try:
            records.append(_record(net, slow_index, elapsed_ms))
        except CnError as exc:
            _annotate(exc, slow_index, None)
            raise
    return records
