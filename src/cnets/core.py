"""Generic computing-network substrate.

A computing network is its architecture: a ComputingNetwork subclass
that keeps its state in arrays, describes its own graph and supplies two
plug-in behaviours, fast dynamics that evaluate the network function and
a slow adaptation algorithm that rewrites the adjustable state between
evaluations. Each architecture keeps whatever its fast steps leave for
its slow step, so the loop hands it only the stream. ``run`` drives a
network, on the problem it was built for, under an explicit
ScaleSchedule and emits one RunRecord per slow step (plus an initial
pre-adaptation snapshot), which is the only artifact the harness
persists.

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
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Any, NamedTuple

import numpy as np

from .errors import CnError, ConfigurationError, NumericDivergenceError
from .rng import RngStream

_LARGEST = sys.float_info.max


class Rule(NamedTuple):
    """A scalar params field's declared rule, as data: a float must be finite,
    then be one of choices if given, else in [low, high] if high is given,
    else >= low, or > low when strict; no low bounds nothing more."""

    low: float | None = None
    strict: bool = False
    high: float | None = None
    choices: tuple = ()

    def check(self, key: str, value: Any) -> None:
        """Raise a ConfigurationError naming key unless value keeps the rule."""
        if isinstance(value, float) and not math.isfinite(value):
            broken = "finite"
        elif self.choices:
            broken = None if value in self.choices else f"one of {self.choices}"
        elif self.high is not None:
            broken = None if self.low <= value <= self.high else f"in [{self.low}, {self.high}]"
        elif self.strict:
            broken = None if value > self.low else ("positive" if self.low == 0 else f"> {self.low}")
        else:
            broken = None if self.low is None or value >= self.low else f">= {self.low}"
        if broken is not None:
            raise ConfigurationError(f"must be {broken}, got {value!r}", key=key)

    def closed(self) -> tuple[float, float]:
        """The closed, finite bounds inside which every number keeps the rule."""
        least = -_LARGEST if self.low is None else math.nextafter(self.low, math.inf) if self.strict else self.low
        return least, _LARGEST if self.high is None else self.high


def rule(**bounds: Any) -> dict[str, Rule]:
    """The metadata that declares a field's rule: field(default=1.0, metadata=rule(low=0))."""
    return {"rule": Rule(**bounds)}


@lru_cache(maxsize=None)
def _declared(cls: type) -> tuple[tuple[str, Rule, tuple, float, float], ...]:
    """(name, rule, choices, least, most) for each field that cls declares a rule
    for, in field order: every number in the closed [least, most] keeps the rule."""
    return tuple(
        (f.name, r, r.choices, *r.closed()) for f in fields(cls) if (r := f.metadata.get("rule"))
    )


def check_fields(params: Any) -> None:
    """Check params' declared fields in field order: a value in its rule's
    choices or closed bounds at once, any other by Rule.check. A params
    class's __post_init__ calls this before any check that spans fields."""
    for name, declared, choices, least, most in _declared(type(params)):
        value = getattr(params, name)
        if not (value in choices if choices else least <= value <= most):
            declared.check(name, value)


@dataclass(frozen=True)
class ScaleSchedule:
    """Step budget linking the fast and slow scales.

    fast_steps_per_slow evaluations happen between consecutive slow
    steps.
    """

    fast_steps_per_slow: int = field(default=1, metadata=rule(low=1))
    slow_steps: int = field(default=0, metadata=rule(low=0))

    __post_init__ = check_fields


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


def _validated(net: ComputingNetwork, node_count: int, edges: np.ndarray) -> tuple[range, np.ndarray]:
    """The node indices and a read-only view of the endpoint array, checked
    against each other and the network; errors name the first bad edge."""
    edges = np.asarray(edges).view()
    edges.flags.writeable = False
    # one contiguous row per endpoint position, since numpy reduces across such
    # rows far faster than along each short edge row; sorted if wider than a pair
    ends = np.ascontiguousarray(np.sort(edges, axis=1).T if edges.shape[1] > 2 else edges.T)
    members = len(ends) - (ends[1:] == ends[:-1]).sum(axis=0)
    widest = len(ends) if net.allow_hyperedges else 2
    bad = (members < 2) | (members > widest) | ((ends < 0) | (ends >= node_count)).any(axis=0)
    if bad.any():
        k = int(bad.argmax())
        if members[k] < 2:
            raise ConfigurationError(f"edge {k} has {members[k]} endpoints; need >= 2")
        if members[k] > 2 and not net.allow_hyperedges:
            raise ConfigurationError(
                f"edge {k} is a hyperedge but architecture {net.kind!r} does not allow them"
            )
        missing = [v for v in dict.fromkeys(edges[k].tolist()) if not 0 <= v < node_count]
        raise ConfigurationError(f"edge {k} references unknown node ids {missing}")
    return range(node_count), edges


class ComputingNetwork:
    """The base of every architecture: a network is its architecture.

    An architecture keeps its state in arrays and defines ``kind``,
    ``allow_hyperedges``, ``directed`` and ``problem``, the instance it
    was built for. ``fast(rng)`` implements the network function's
    dynamics (it may mutate the state), ``readout()`` is a pure function
    of the state, ``slow(rng)`` is the adaptation algorithm, and
    ``best_value()`` and ``parameters()`` are what each record reads.
    Each architecture keeps whatever its fast steps leave for its slow
    step: an ann its next sample's place in the dataset, a colony the
    tours it walked.

    ``substrate()`` returns the node count and the endpoint array.
    ``nodes`` is ``range(node_count)``; ``edges`` is the endpoint array,
    read-only, its rows in edge-id order and (source, destination) order
    when ``directed``. Edges with more than two members are legal only
    when ``allow_hyperedges`` is set. Both are built and validated on
    first read of either.
    """

    @property
    def nodes(self) -> range:
        return self._graph[0]

    @property
    def edges(self) -> np.ndarray:
        return self._graph[1]

    @cached_property
    def _graph(self) -> tuple[range, np.ndarray]:
        return _validated(self, *self.substrate())


def fast_step(net: ComputingNetwork, rng: RngStream) -> list[float]:
    """Run one fast-scale evaluation and return the readout."""
    net.fast(rng)
    out = net.readout()
    if not all(map(math.isfinite, out)):
        value = next(v for v in out if not math.isfinite(v))
        raise NumericDivergenceError(f"{net.kind} readout produced non-finite value {value!r}")
    return out


def slow_step(net: ComputingNetwork, rng: RngStream) -> ComputingNetwork:
    """Apply the adaptation algorithm once and return the same network."""
    net.slow(rng)
    return net


def _record(net: ComputingNetwork, slow_index: int, elapsed_ms: float) -> RunRecord:
    return RunRecord(
        slow_step=slow_index,
        best_value=net.best_value(),
        network_output=net.readout(),
        parameter_snapshot=net.parameters(),
        wall_clock_ms=elapsed_ms,
    )


def run(net: ComputingNetwork, schedule: ScaleSchedule, rng: RngStream) -> list[RunRecord]:
    """Drive the network through the whole schedule.

    Returns the initial snapshot record followed by one record per slow
    step. A CnError raised inside carries (slow step, fast index) as its
    step_position; the fast index is None outside the fast phase.
    """
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
