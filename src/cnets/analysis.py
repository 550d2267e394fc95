"""Information content of state traces at two description scales.

A StateTrace is a time-by-node matrix of discrete symbols, held as one
read-only integer array. Information is plug-in Shannon entropy (base
2) of the empirical distributions: node_scale_info sums each node's
marginal entropy, network_scale_info takes the joint entropy of whole
rows, and interaction_excess is their difference, the share of
node-scale description length that joint structure makes redundant.
Continuous traces are discretized per node into equal-width bins over
that node's observed range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import RunRecord
from .errors import ConfigurationError

DEFAULT_BINS = 16


def _table(rows) -> np.ndarray:
    """rows as a float table, steps by nodes; anything else is refused."""
    try:
        table = np.asarray(rows)
    except ValueError:  # ragged rows
        table = np.empty(0)
    if table.dtype.kind not in "biuf" or table.ndim != 2 or not table.size:
        raise ConfigurationError("a trace is a non-empty table of numbers, one row per time step")
    return table.astype(float)


@dataclass(frozen=True, eq=False)
class StateTrace:
    """Rows are time steps, columns are nodes, entries are symbols.

    states is a read-only int64 (steps, nodes) array of symbols in
    [0, bins). Any table of whole numbers converts, floats and bools
    included; any other symbol is refused, never truncated.
    """

    states: np.ndarray
    bins: int

    def __post_init__(self):
        if not 1 <= self.bins <= 2**53:  # symbols pass through float64, exact up to 2**53
            raise ConfigurationError(f"need 1 to 2**53 bins, got {self.bins}")
        table = _table(self.states)
        ok = (table == np.floor(table)) & (table >= 0) & (table < self.bins)
        if not ok.all():
            step, node = divmod(int(ok.argmin()), table.shape[1])
            v, where = table.item(step, node), f"at step {step}, node {node}"
            if not v.is_integer():
                raise ConfigurationError(f"symbol {v} {where} is not a whole number")
            raise ConfigurationError(f"symbol {int(v)} {where} outside [0, {self.bins}) alphabet")
        states = table.astype(np.int64)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def steps(self) -> int:
        return len(self.states)

    @property
    def node_count(self) -> int:
        return self.states.shape[1]

    def column(self, node: int) -> np.ndarray:
        return self.states[:, node]


def trace_from_discrete(rows: Sequence[Sequence[int]], bins: int | None = None) -> StateTrace:
    """Wrap already-discrete states; the alphabet defaults to the observed max."""
    if bins is None:
        rows = _table(rows)
        bins = int(rows[np.isfinite(rows)].max(initial=0)) + 1
    return StateTrace(states=rows, bins=bins)


def trace_from_continuous(
    rows: Sequence[Sequence[float]], bins: int = DEFAULT_BINS
) -> StateTrace:
    """Discretize each node into equal-width bins over its observed range.

    A node whose value never changes gets the single symbol 0, and one
    whose range is wider than the largest float is refused.
    """
    matrix = _table(rows)
    if not np.all(np.isfinite(matrix)):
        raise ConfigurationError("trace contains non-finite values")
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    with np.errstate(over="ignore"):  # an overflowing span is refused just below
        span = hi - lo
    if not np.all(np.isfinite(span)):
        k = int(np.isinf(span).argmax())
        raise ConfigurationError(f"node {k}'s range {lo[k]} to {hi[k]} is wider than the largest float")
    # a constant node divides its zeros by 1, not by its span of 0
    scaled = (matrix - lo) / np.where(span > 0, span, 1.0)
    # the top of the range falls in the last bin; StateTrace checks bins first
    return StateTrace(states=np.floor(np.minimum(scaled * bins, bins - 1)), bins=bins)


def trace_from_records(
    records: Iterable[RunRecord], bins: int = DEFAULT_BINS
) -> StateTrace:
    """Build a trace from the network_output column of run records."""
    rows = [record.network_output for record in records]
    if not rows:
        raise ConfigurationError("no records to build a trace from")
    return trace_from_continuous(rows, bins=bins)


def _entropy(outcomes: np.ndarray) -> float:
    """Plug-in entropy of the outcomes along axis 0 (symbols, or whole rows).

    The terms are added in the order the outcomes first occur, not in
    np.unique's sorted order: the sum's rounding depends on its order, and
    tests/analysis_oracle.py, which counts outcomes one by one, adds them so.
    """
    _, first, counts = np.unique(outcomes, axis=0, return_index=True, return_counts=True)
    total = len(outcomes)
    h = 0.0
    for c in counts[first.argsort()].tolist():
        p = c / total
        h -= p * math.log2(p)
    return h


def node_scale_info(trace: StateTrace) -> float:
    """Total description length treating every node independently (bits)."""
    return sum(_entropy(column) for column in trace.states.T)


def network_scale_info(trace: StateTrace) -> float:
    """Joint entropy of whole network states (bits)."""
    return _entropy(trace.states)


def interaction_excess(trace: StateTrace) -> float:
    """Bits the node-scale description wastes relative to the joint one.

    Non-negative by subadditivity; zero exactly when nodes are
    empirically independent.
    """
    return node_scale_info(trace) - network_scale_info(trace)
